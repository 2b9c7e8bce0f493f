package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/obshttp"
	"repro/internal/vcache"
)

// cacheSize bounds the verdict cache: above relabel-hits' 308 distinct
// keys, far below the number of distinct histories fresh-misses sends.
const cacheSize = 1024

// service is one in-process checking server, configured the way -serve
// sets it up, and the HTTP client that loads it.
type service struct {
	reg       *obs.Registry
	srv       *obshttp.Server
	cache     *vcache.Cache
	url       string
	transport *http.Transport
	client    *http.Client
}

// startService builds and starts the server: obshttp.New, then
// EnableIncidents with an in-memory spool, then EnableCheck with one
// fleet worker per CPU and a verdict cache. tap, when non-nil, is teed
// into the server's event path first, as -serve does for -trace.
func startService(tap obs.Sink) (*service, error) {
	reg := obs.NewRegistry()
	srv := obshttp.New(reg, 0)
	if tap != nil {
		srv.Tap(tap)
	}
	if err := srv.EnableIncidents(obshttp.IncidentOptions{}); err != nil {
		return nil, fmt.Errorf("enable incidents: %w", err)
	}
	cache := vcache.New(cacheSize, reg)
	srv.EnableCheck(obshttp.CheckOptions{Workers: runtime.NumCPU(), Cache: cache})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("start server: %w", err)
	}
	transport := &http.Transport{
		MaxConnsPerHost:     senders(),
		MaxIdleConnsPerHost: senders(),
		DisableCompression:  true,
	}
	return &service{reg: reg, srv: srv, cache: cache, url: "http://" + addr + "/check",
		transport: transport, client: &http.Client{Transport: transport}}, nil
}

func (s *service) stop() error {
	s.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return s.srv.Shutdown(ctx)
}

// senders is the load generator's concurrency: one sender goroutine and
// one connection per CPU.
func senders() int { return runtime.NumCPU() }

// sample is one scheduled check: when it was due, when it was sent and
// answered (offsets from the phase start), and the answer.
type sample struct {
	due, start, end time.Duration
	err             error
	status          int
	verdict         string
	reason          string
	wallUs          int64
}

// answered reports whether the check came back 200 with a decided verdict.
func (s *sample) answered() bool {
	return s.err == nil && s.status == http.StatusOK &&
		(s.verdict == "allowed" || s.verdict == "forbidden")
}

type checkResponse struct {
	Status  int    `json:"status"`
	Verdict string `json:"verdict"`
	Reason  string `json:"reason"`
	Error   string `json:"error"`
	WallUs  int64  `json:"wall_us"`
}

func (s *service) send(r *request, out *sample) {
	req, err := http.NewRequest(http.MethodPost, s.url, bytes.NewReader(r.body))
	if err != nil {
		out.err = err
		return
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", r.id)
	resp, err := s.client.Do(req)
	if err != nil {
		out.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out.status = resp.StatusCode
	if err != nil {
		out.err = err
		return
	}
	var cr checkResponse
	if err := json.Unmarshal(body, &cr); err != nil {
		out.err = fmt.Errorf("response %s: %w", r.id, err)
		return
	}
	// The verdict is one of a few words; keeping the literal instead of
	// the decoded copy keeps the phase's retained heap small.
	switch cr.Verdict {
	case "allowed":
		out.verdict = "allowed"
	case "forbidden":
		out.verdict = "forbidden"
	default:
		out.verdict = cr.Verdict
	}
	out.reason = cr.Reason
	out.wallUs = cr.WallUs
	if cr.Error != "" {
		out.err = errors.New(cr.Error)
	}
}

// run sends reqs on their schedule: open loop, each sender taking the next
// due request, sleeping until it is due and timing it from then. A nil
// schedule sends back to back (closed loop). It returns the samples and
// the clock origin their offsets count from.
func (s *service) run(reqs []request, due []time.Duration) ([]sample, time.Time) {
	out := make([]sample, len(reqs))
	var next atomic.Int64
	t0 := time.Now().Add(time.Millisecond)
	var wg sync.WaitGroup
	for k := 0; k < senders(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				o := &out[i]
				if due != nil {
					o.due = due[i]
					sleepUntil(t0.Add(o.due))
				}
				o.start = time.Since(t0)
				if due == nil {
					o.due = o.start
				}
				s.send(&reqs[i], o)
				o.end = time.Since(t0)
			}
		}()
	}
	wg.Wait()
	return out, t0
}

// sleepUntil blocks until t with nanosleep: the runtime's timers wake up
// to a millisecond late on an idle process, which would read as service
// latency when checks are timed from their due time.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(d.Nanoseconds())
		if err := syscall.Nanosleep(&ts, nil); err == nil {
			return
		}
	}
}

// latenciesMs times each scheduled check from its due time; a check that
// was not answered, or answered wrongly when want is given, is +Inf.
func latenciesMs(ss []sample, want []string) []float64 {
	out := make([]float64, len(ss))
	for i := range ss {
		s := &ss[i]
		if !s.answered() || (want != nil && s.verdict != want[i]) {
			out[i] = math.Inf(1)
			continue
		}
		out[i] = float64(s.end-s.due) / 1e6
	}
	return out
}
