package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"sort"
	"strconv"
)

// spreadMode runs the workload k times, each as its own process with the
// next seed, and prints each metric's median, quartiles, the interquartile
// range and the full range as shares of the median.
func spreadMode(workload string, seed int64, seconds, trace int, k int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	values := map[string][]float64{}
	units := map[string]string{}
	for i := 0; i < k; i++ {
		s := seed + int64(i)
		cmd := exec.Command(self, "--workload", workload, "--seed", strconv.FormatInt(s, 10),
			"--seconds", strconv.Itoa(seconds), "--trace", strconv.Itoa(trace))
		cmd.Stderr = os.Stderr
		stdout, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		res, err := lastResult(stdout)
		if err != nil {
			return fmt.Errorf("run with seed %d: %w", s, err)
		}
		if !res.Correct {
			return fmt.Errorf("run with seed %d: incorrect result", s)
		}
		for name, m := range res.Metrics {
			values[name] = append(values[name], m.Value)
			units[name] = m.Unit
		}
		fmt.Printf("seed %d done\n", s)
	}
	names := make([]string, 0, len(values))
	for name := range values {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Printf("%-36s %-6s %12s %12s %12s %9s %9s\n", "metric", "unit", "q1", "median", "q3", "iqr/med", "range/med")
	for _, name := range names {
		xs := values[name]
		q1, q2, q3 := quartiles(xs)
		lo, hi := math.Inf(1), math.Inf(-1)
		for _, x := range xs {
			lo, hi = math.Min(lo, x), math.Max(hi, x)
		}
		fmt.Printf("%-36s %-6s %12.6g %12.6g %12.6g %9.4f %9.4f\n",
			name, units[name], q1, q2, q3, share(q3-q1, q2), share(hi-lo, q2))
	}
	return nil
}

func share(x, of float64) float64 {
	if of == 0 {
		return 0
	}
	return x / math.Abs(of)
}

// lastResult parses the result object on the last line of a run's output.
func lastResult(stdout []byte) (resultLine, error) {
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(stdout))
	for sc.Scan() {
		if line := bytes.TrimSpace(sc.Bytes()); len(line) > 0 {
			last = append(last[:0], line...)
		}
	}
	var res resultLine
	if err := json.Unmarshal(last, &res); err != nil {
		return res, fmt.Errorf("no result line: %w", err)
	}
	return res, nil
}
