package vcache

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/model"
)

// goid returns the calling goroutine's id, as its stack trace's header
// names it.
func goid() string {
	buf := make([]byte, 64)
	buf = buf[:runtime.Stack(buf, false)]
	return string(bytes.Fields(buf)[1])
}

// TestMissSolvesOnCaller: a miss whose context can never be done runs
// solve on the caller's goroutine, and one whose context can be done runs
// it on another. Everything else is the same on both paths: a waiter that
// coalesces onto the flight gets the solve's verdict as a hit, a decided
// verdict is cached, and a panicking solve reaches the initiator and the
// waiter as one error, caches nothing and leaves no flight behind, so the
// next lookup solves again.
func TestMissSolvesOnCaller(t *testing.T) {
	cases := []struct {
		name   string
		ctx    func() (context.Context, context.CancelFunc)
		inline bool
	}{
		{"never done", func() (context.Context, context.CancelFunc) { return context.Background(), func() {} }, true},
		{"cancellable", func() (context.Context, context.CancelFunc) { return context.WithCancel(context.Background()) }, false},
	}
	want := model.Verdict{Allowed: true, Progress: model.Progress{Candidates: 3, Nodes: 4}}
	type answer struct {
		v   model.Verdict
		hit bool
		err error
	}
	for _, tc := range cases {
		for _, panics := range []bool{false, true} {
			name := tc.name
			if panics {
				name += "/panic"
			}
			c := New(8, obs.NewRegistry())
			ctx, cancel := tc.ctx()
			const enc = "w(x)1 | r(x)1"
			k := KeyFor(enc, "SC", "auto")
			started, gate := make(chan struct{}), make(chan struct{})
			solver, caller := make(chan string, 1), make(chan string, 1)
			solve := func() (model.Verdict, error) {
				solver <- goid()
				close(started)
				<-gate
				if panics {
					panic("boom")
				}
				return want, nil
			}
			never := func() (model.Verdict, error) {
				t.Errorf("%s: a waiter started a solve", name)
				return model.Verdict{}, nil
			}
			first, waiter := make(chan answer, 1), make(chan answer, 1)
			go func() {
				caller <- goid()
				v, hit, err := c.Do(ctx, k, enc, solve)
				first <- answer{v, hit, err}
			}()
			<-started
			go func() {
				v, hit, err := c.Do(context.Background(), k, enc, never)
				waiter <- answer{v, hit, err}
			}()
			for c.Stats().Coalesced == 0 {
				time.Sleep(time.Millisecond)
			}
			close(gate)
			a, w := <-first, <-waiter
			cancel()
			if on := <-solver == <-caller; on != tc.inline {
				t.Errorf("%s: solve ran on the caller's goroutine: %v, want %v", name, on, tc.inline)
			}
			if a.hit || !w.hit {
				t.Errorf("%s: initiator hit=%v, waiter hit=%v; want a miss and a hit", name, a.hit, w.hit)
			}
			if panics {
				const msg = "vcache: solve panicked: boom"
				if a.err == nil || a.err.Error() != msg || w.err == nil || w.err.Error() != msg {
					t.Errorf("%s: initiator error %v, waiter error %v, want %q for both", name, a.err, w.err, msg)
				}
				if n := c.Len(); n != 0 {
					t.Errorf("%s: %d entries after a panicking solve, want 0", name, n)
				}
				again := false
				if _, hit, err := c.Do(context.Background(), k, enc, func() (model.Verdict, error) {
					again = true
					return want, nil
				}); hit || err != nil || !again {
					t.Errorf("%s: the lookup after a panicking solve: hit=%v err=%v solved=%v, want a fresh solve", name, hit, err, again)
				}
				continue
			}
			if a.err != nil || a.v.Progress != want.Progress {
				t.Errorf("%s: initiator got %+v, %v; want %+v", name, a.v, a.err, want)
			}
			if w.err != nil || !w.v.Allowed || w.v.Progress.Candidates != 0 || w.v.Progress.Nodes != 0 {
				t.Errorf("%s: waiter got %+v, %v; want the verdict with no work", name, w.v, w.err)
			}
			if n := c.Len(); n != 1 {
				t.Errorf("%s: %d entries after a decided solve, want 1", name, n)
			}
		}
	}
}
