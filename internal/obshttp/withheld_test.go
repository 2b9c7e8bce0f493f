package obshttp

import (
	"context"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestChaosCancelWorkerFault: a client that leaves while an injected
// svc.worker fault stalls its job gets its answer withheld, and the
// fleet, not the handler, emits the check's one run_finish once the job
// ends. /runs then shows how the check really ended, and the flight
// recorder seals one bundle on that run_finish: the solve's trail and
// verdict when the fault only delays, the contained panic merged into the
// fault trigger when it panics. Both ways through the service are pinned:
// the uncached path, and the cached one, whose solve outlives its client.
func TestChaosCancelWorkerFault(t *testing.T) {
	defer fault.Reset()
	body := fmt.Sprintf(`{"history":%q,"model":"SC"}`, figure1SB)
	const stall = 300 * time.Millisecond
	scenarios := []struct {
		name  string
		f     fault.Fault
		cache int
	}{
		{"delay", fault.Fault{Delay: stall, Nth: 1}, 0},
		{"delay-cached", fault.Fault{Delay: stall, Nth: 1}, 256},
		{"panic", fault.Fault{Delay: stall, Panic: "worker chaos", Nth: 1}, 0},
		{"panic-cached", fault.Fault{Delay: stall, Panic: "worker chaos", Nth: 1}, 256},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			fault.Reset()
			fault.Set(fault.SvcWorker, sc.f)
			defer fault.Reset()

			reg := obs.NewRegistry()
			s := New(reg, 256)
			if err := s.EnableIncidents(quietIncidents()); err != nil {
				t.Fatal(err)
			}
			s.EnableCheck(CheckOptions{Workers: 1, QueueDepth: 4, CacheSize: sc.cache})
			addr, err := s.Start("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			base := "http://" + addr

			ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
			req, err := http.NewRequestWithContext(ctx, "POST", base+"/check", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("Content-Type", "application/json")
			req.Header.Set("X-Request-ID", "leaver")
			if resp, err := http.DefaultClient.Do(req); err == nil {
				resp.Body.Close()
				t.Fatalf("the client got a %d before the stalled worker answered", resp.StatusCode)
			}
			cancel()

			rec := s.Recorder()
			for deadline := time.Now().Add(10 * time.Second); rec.Spool().Len() == 0; {
				if time.Now().After(deadline) {
					t.Fatalf("no bundle sealed (stats %+v)", rec.Stats())
				}
				time.Sleep(5 * time.Millisecond)
			}
			var runs struct {
				Runs []obs.Event `json:"runs"`
			}
			getJSON(t, base+"/runs", &runs)

			sctx, scancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := s.Shutdown(sctx); err != nil {
				t.Errorf("shutdown: %v", err)
			}
			scancel()

			var finishes []obs.Event
			for _, e := range runs.Runs {
				if e.Type == obs.EvRunFinish && e.Req == "leaver" {
					finishes = append(finishes, e)
				}
			}
			if rec.Spool().Len() != 1 {
				t.Fatalf("sealed %d bundles, want 1: %v", rec.Spool().Len(), rec.Spool().List())
			}
			b, ok, err := rec.Spool().Get(rec.Spool().List()[0].ID)
			if err != nil || !ok || b.Check == nil {
				t.Fatalf("bundle unreadable or without its check: %v", err)
			}
			if b.Trigger.Kind != "fault" || b.Trigger.Point != fault.SvcWorker || b.Trigger.Req != "leaver" {
				t.Errorf("trigger %+v, want the svc.worker fault on leaver", b.Trigger)
			}
			if len(finishes) != 1 {
				t.Fatalf("/runs holds %d run_finish events for leaver, want 1: %+v", len(finishes), finishes)
			}
			fin := finishes[0]
			if sc.f.Panic != nil {
				if !strings.Contains(fin.Detail, "worker chaos") || !strings.Contains(b.Check.Error, "worker chaos") {
					t.Errorf("run_finish detail %q, bundle error %q, want the contained panic", fin.Detail, b.Check.Error)
				}
				if b.Trigger.Fires != 2 {
					t.Errorf("trigger fired %d times, want the fault and its panic merged (2)", b.Trigger.Fires)
				}
			} else {
				if fin.Verdict != "forbidden" || b.Check.Verdict != "forbidden" {
					t.Errorf("run_finish verdict %q, bundle verdict %q, want the fleet's forbidden", fin.Verdict, b.Check.Verdict)
				}
				if fin.SolveUs <= 0 || fin.WaitUs < 0 {
					t.Errorf("run_finish wait %dµs solve %dµs, want the fleet's breakdown", fin.WaitUs, fin.SolveUs)
				}
				solved := false
				for _, e := range b.Events {
					solved = solved || (e.Type == obs.EvSpan && e.Span == "solve")
				}
				if !solved {
					t.Errorf("bundle trail has no solve span: %+v", b.Events)
				}
			}
			if rcv, adm, _, _ := checkAccounting(t, reg); rcv != 1 || adm != 1 {
				t.Errorf("received %d admitted %d, want the withheld check admitted once", rcv, adm)
			}
			waitGoroutines(t, sc.name, before)
		})
	}
}
