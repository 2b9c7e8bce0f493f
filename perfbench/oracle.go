package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/history"
	"repro/model"
)

// The oracle judges every service answer against a direct model.AllowsCtx
// on the same history and model, under the tier's work budget. On
// relabel-hits the answer is judged against the base corpus history's
// verdict instead, which also pins relabel invariance.

// verdictOf decides one check directly. An Unknown verdict is an error:
// the workloads are chosen so every check decides within the budget.
func verdictOf(ctx context.Context, hist, modelName string) (string, model.Verdict, error) {
	s, err := history.Parse(hist)
	if err != nil {
		return "", model.Verdict{}, fmt.Errorf("oracle: parse: %w", err)
	}
	m, err := model.ByName(modelName)
	if err != nil {
		return "", model.Verdict{}, fmt.Errorf("oracle: %w", err)
	}
	v, err := model.AllowsCtx(budgetCtx(ctx), model.WithWorkers(m, 1), s)
	if err != nil {
		return "", v, fmt.Errorf("oracle: %s: %w", modelName, err)
	}
	return render(v), v, nil
}

// render spells a verdict the way the service does.
func render(v model.Verdict) string {
	switch {
	case !v.Decided():
		return "unknown"
	case v.Allowed:
		return "allowed"
	}
	return "forbidden"
}

// baseVerdicts decides every relabel-hits pair on its corpus history.
func baseVerdicts(ctx context.Context, ps []pair) ([]string, error) {
	out := make([]string, len(ps))
	for i, p := range ps {
		v, err := model.AllowsCtx(budgetCtx(ctx), model.WithWorkers(p.model, 1), p.test.History)
		if err != nil {
			return nil, fmt.Errorf("oracle: %s on %s: %w", p.model.Name(), p.test.Name, err)
		}
		if !v.Decided() {
			return nil, fmt.Errorf("oracle: %s on %s: undecided (%v)", p.model.Name(), p.test.Name, v.Unknown)
		}
		out[i] = render(v)
	}
	return out, nil
}

// expected returns the oracle's verdict for each request, deciding fresh
// histories on one goroutine per CPU.
func expected(ctx context.Context, reqs []request, base []string) ([]string, error) {
	out := make([]string, len(reqs))
	var firstErr error
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < runtime.NumCPU(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				r := reqs[i]
				if r.pair >= 0 {
					out[i] = base[r.pair]
					continue
				}
				v, _, err := verdictOf(ctx, r.history(), r.model)
				if err == nil && v == "unknown" {
					err = fmt.Errorf("oracle: %s on request %s: undecided", r.model, r.id)
				}
				if err != nil {
					mu.Lock()
					if firstErr == nil {
						firstErr = err
					}
					mu.Unlock()
				}
				out[i] = v
			}
		}()
	}
	for i := range reqs {
		next <- i
	}
	close(next)
	wg.Wait()
	return out, firstErr
}
