package obshttp

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/history"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/model"
)

// The cache suite covers the service-level guarantees of the verdict
// cache: relabeled variants of one history cost one engine solve,
// concurrent identical checks coalesce onto one solve, cached witnesses
// replay under the caller's own labels, a fault in the cache path never
// flips a verdict, and the vcache accounting (hits + misses == lookups)
// and service accounting (admitted + shed + failed == received) both
// balance on every path.

// relabeledVariants returns n distinct-looking relabelings of hist, all in
// one isomorphism class (the first is hist itself).
func relabeledVariants(t *testing.T, hist string, n int) []string {
	t.Helper()
	sys, err := history.Parse(hist)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(11))
	out := make([]string, n)
	out[0] = hist
	for i := 1; i < n; i++ {
		rs, err := history.RelabelRandom(sys, rng)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = history.Format(rs)
	}
	return out
}

// vcacheBalance asserts hits + misses == lookups and returns the counters.
func vcacheBalance(t *testing.T, reg *obs.Registry) (lookups, hits, misses int64) {
	t.Helper()
	lookups = reg.Counter("vcache.lookups").Value()
	hits = reg.Counter("vcache.hits").Value()
	misses = reg.Counter("vcache.misses").Value()
	if hits+misses != lookups {
		t.Errorf("vcache accounting broken: hits=%d misses=%d lookups=%d", hits, misses, lookups)
	}
	return lookups, hits, misses
}

// TestCacheCollapsesRelabeledBatch is the acceptance scenario: a batch of
// 1000 relabeled variants of one history costs exactly one engine solve,
// every variant gets the shared verdict, and both accounting invariants
// hold.
func TestCacheCollapsesRelabeledBatch(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	_, base, reg := startCheckServer(t, CheckOptions{Workers: 2, CacheSize: 64})

	const variants = 1000
	type one struct {
		History string `json:"history"`
		Model   string `json:"model"`
	}
	batch := struct {
		Checks []one `json:"checks"`
	}{}
	for _, h := range relabeledVariants(t, figure1SB, variants) {
		batch.Checks = append(batch.Checks, one{History: h, Model: "SC"})
	}
	body, err := json.Marshal(batch)
	if err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(base+"/check", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(resp.Body)
		t.Fatalf("batch status %d:\n%s", resp.StatusCode, data)
	}
	var out struct {
		Results []checkResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != variants {
		t.Fatalf("batch returned %d results, want %d", len(out.Results), variants)
	}
	for i, res := range out.Results {
		if res.Status != http.StatusOK || res.Verdict != "forbidden" {
			t.Fatalf("variant %d: status %d verdict %q reason %q, want 200/forbidden",
				i, res.Status, res.Verdict, res.Reason)
		}
	}

	if solves := reg.Histogram("svc.check.run_us").Count(); solves != 1 {
		t.Errorf("engine ran %d solves for %d relabeled variants, want exactly 1", solves, variants)
	}
	lookups, hits, _ := vcacheBalance(t, reg)
	if lookups != variants || hits != variants-1 {
		t.Errorf("vcache lookups=%d hits=%d, want %d/%d", lookups, hits, variants, variants-1)
	}
	if rec, adm, _, _ := checkAccounting(t, reg); rec != variants || adm != variants {
		t.Errorf("received=%d admitted=%d, want all %d admitted", rec, adm, variants)
	}
}

// TestCacheSingleFlight wedges the one engine solve on a gate while N
// concurrent identical checks arrive: all of them coalesce onto that
// solve, exactly one engine run happens, and everyone gets the verdict.
func TestCacheSingleFlight(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	_, base, reg := startCheckServer(t, CheckOptions{Workers: 2, CacheSize: 64})

	gate := make(chan struct{})
	fault.Set(fault.SvcWorker, fault.Fault{Fn: func(int, any) { <-gate }})

	const clients = 8
	body := fmt.Sprintf(`{"history":%q,"model":"SC"}`, figure1SB)
	results := make(chan checkResult, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, _ := postCheck(t, base, body, nil)
			results <- res
		}()
	}

	// Wait until every client is parked on the flight (one solving in the
	// fleet, the rest coalesced), then release the solve.
	deadline := time.Now().Add(5 * time.Second)
	for reg.Counter("vcache.lookups").Value() < clients {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d lookups arrived", reg.Counter("vcache.lookups").Value(), clients)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(gate)
	wg.Wait()
	fault.Clear(fault.SvcWorker)

	close(results)
	for res := range results {
		if res.Status != http.StatusOK || res.Verdict != "forbidden" {
			t.Errorf("coalesced check: status %d verdict %q reason %q, want 200/forbidden",
				res.Status, res.Verdict, res.Reason)
		}
	}
	if solves := reg.Histogram("svc.check.run_us").Count(); solves != 1 {
		t.Errorf("engine ran %d solves for %d concurrent identical checks, want exactly 1", solves, clients)
	}
	lookups, hits, misses := vcacheBalance(t, reg)
	if lookups != clients || misses != 1 || hits != clients-1 {
		t.Errorf("vcache lookups=%d hits=%d misses=%d, want %d/%d/1", lookups, hits, misses, clients, clients-1)
	}
	if co := reg.Counter("vcache.coalesced").Value(); co != clients-1 {
		t.Errorf("vcache.coalesced=%d, want %d", co, clients-1)
	}
	if rec, adm, _, _ := checkAccounting(t, reg); rec != clients || adm != clients {
		t.Errorf("received=%d admitted=%d, want all %d admitted", rec, adm, clients)
	}
}

// TestCacheExplainReplaysUnderOriginalLabels: a cache hit asked to explain
// must build the explanation against the caller's own (relabeled) history
// — the cached canonical witness is mapped back first — and that
// explanation must replay through model.ValidateExplanation.
func TestCacheExplainReplaysUnderOriginalLabels(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	_, base, reg := startCheckServer(t, CheckOptions{Workers: 1, CacheSize: 64})

	// TSO allows Figure 1's store buffering, so the cached verdict carries
	// a witness worth replaying.
	variants := relabeledVariants(t, figure1SB, 2)
	warm := fmt.Sprintf(`{"history":%q,"model":"TSO"}`, variants[0])
	if res, _ := postCheck(t, base, warm, nil); res.Verdict != "allowed" {
		t.Fatalf("warming check: verdict %q, want allowed", res.Verdict)
	}

	probe := fmt.Sprintf(`{"history":%q,"model":"TSO","explain":true}`, variants[1])
	res, _ := postCheck(t, base, probe, nil)
	if res.Verdict != "allowed" {
		t.Fatalf("relabeled check: verdict %q reason %q, want allowed", res.Verdict, res.Reason)
	}
	if _, hits, _ := vcacheBalance(t, reg); hits != 1 {
		t.Fatalf("relabeled variant did not hit the cache (hits=%d)", hits)
	}
	if len(res.Explanation) == 0 {
		t.Fatalf("no explanation on the cached path (explain_error %q)", res.ExplainError)
	}
	var e model.Explanation
	if err := json.Unmarshal(res.Explanation, &e); err != nil {
		t.Fatalf("explanation not valid JSON: %v", err)
	}
	sys, err := history.Parse(variants[1])
	if err != nil {
		t.Fatal(err)
	}
	m, err := model.ByName("TSO")
	if err != nil {
		t.Fatal(err)
	}
	if err := model.ValidateExplanation(m, sys, &e); err != nil {
		t.Errorf("cached explanation does not validate under the caller's labels: %v", err)
	}
}

// TestCacheHitReportsNoWork: the /check result of a cache hit reports the
// engine work that request did, which is none — not the candidates and
// nodes of the solve that filled the cache — and the same verdict.
func TestCacheHitReportsNoWork(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	_, base, reg := startCheckServer(t, CheckOptions{Workers: 1, CacheSize: 64})

	variants := relabeledVariants(t, figure1SB, 2)
	warm, _ := postCheck(t, base, fmt.Sprintf(`{"history":%q,"model":"TSO"}`, variants[0]), nil)
	if warm.Verdict != "allowed" || warm.Candidates == 0 || warm.Nodes == 0 {
		t.Fatalf("warming check: verdict %q candidates=%d nodes=%d, want allowed with work counted",
			warm.Verdict, warm.Candidates, warm.Nodes)
	}
	res, _ := postCheck(t, base, fmt.Sprintf(`{"history":%q,"model":"TSO"}`, variants[1]), nil)
	if _, hits, _ := vcacheBalance(t, reg); hits != 1 {
		t.Fatalf("relabeled variant did not hit the cache (hits=%d)", hits)
	}
	if res.Verdict != warm.Verdict || res.Frontier != warm.Frontier {
		t.Errorf("hit: verdict %q frontier %d, want the cached %q/%d", res.Verdict, res.Frontier, warm.Verdict, warm.Frontier)
	}
	if res.Candidates != 0 || res.Nodes != 0 {
		t.Errorf("hit reports candidates=%d nodes=%d, want 0/0", res.Candidates, res.Nodes)
	}
}

// TestCacheHeavyTierBypasses: the heavy tier is the escape hatch for a
// fresh full-budget solve — it must never be answered from the cache, even
// when the default tier has already cached the verdict.
func TestCacheHeavyTierBypasses(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	_, base, reg := startCheckServer(t, CheckOptions{Workers: 1, CacheSize: 64})

	body := fmt.Sprintf(`{"history":%q,"model":"SC"}`, figure1SB)
	if res, _ := postCheck(t, base, body, nil); res.Verdict != "forbidden" {
		t.Fatalf("warming check: verdict %q, want forbidden", res.Verdict)
	}
	heavy := fmt.Sprintf(`{"history":%q,"model":"SC","tier":"heavy"}`, figure1SB)
	if res, _ := postCheck(t, base, heavy, nil); res.Verdict != "forbidden" {
		t.Fatalf("heavy check: verdict %q, want forbidden", res.Verdict)
	}
	if lookups, _, _ := vcacheBalance(t, reg); lookups != 1 {
		t.Errorf("vcache.lookups=%d — the heavy tier consulted the cache", lookups)
	}
	if solves := reg.Histogram("svc.check.run_us").Count(); solves != 2 {
		t.Errorf("engine ran %d solves, want 2 (heavy must re-solve)", solves)
	}
}

// TestCacheFaultNeverFlipsVerdicts injects an error at the svc.cache fault
// point on every other check: faulted checks bypass the cache and solve
// directly, so verdicts — cached, coalesced, or bypassed — never differ,
// and both accountings stay balanced.
func TestCacheFaultNeverFlipsVerdicts(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	_, base, reg := startCheckServer(t, CheckOptions{Workers: 2, CacheSize: 64})
	fault.Set(fault.SvcCache, fault.Fault{Err: fault.ErrInjected, Every: 2})

	want := map[string]string{"SC": "forbidden", "TSO": "allowed", "PC": "allowed"}
	variants := relabeledVariants(t, figure1SB, 6)
	const rounds = 2
	sent := 0
	for r := 0; r < rounds; r++ {
		for mdl, verdict := range want {
			for _, h := range variants {
				body := fmt.Sprintf(`{"history":%q,"model":%q}`, h, mdl)
				res, resp := postCheck(t, base, body, nil)
				sent++
				if resp.StatusCode != http.StatusOK || res.Verdict != verdict {
					t.Fatalf("%s on variant under cache fault: status %d verdict %q reason %q, want 200/%s",
						mdl, resp.StatusCode, res.Verdict, res.Reason, verdict)
				}
			}
		}
	}

	lookups, _, _ := vcacheBalance(t, reg)
	if lookups == 0 || lookups >= int64(sent) {
		t.Errorf("vcache.lookups=%d of %d checks — the fault should bypass some, not all or none", lookups, sent)
	}
	if rec, adm, _, _ := checkAccounting(t, reg); rec != int64(sent) || adm != int64(sent) {
		t.Errorf("received=%d admitted=%d, want all %d admitted", rec, adm, sent)
	}
}
