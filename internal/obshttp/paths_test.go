package obshttp

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"testing"

	"repro/history"
	"repro/internal/fault"
	"repro/model"
)

// TestCheckPathsAgree posts every TestCheckVerdicts case, explained, down
// each way a check can take to the fleet: a default-tier cache miss, a
// cache hit on a relabeled variant, the uncached heavy tier, and the
// default tier with the svc.cache fault armed (which bypasses the cache).
// All ways must answer the same verdict and reason, each with an
// explanation that validates against the history that request posted, and
// grow the same span tree apart from the cache's own spans; the service's
// accounting must balance.
func TestCheckPathsAgree(t *testing.T) {
	defer fault.Reset()
	fault.Reset()
	base, ring, reg := startSpanServer(t, CheckOptions{Workers: 2, CacheSize: 64})

	solved := []string{"admit", "encode", "explain", "queue", "request", "solve"}
	withCache := func(names ...string) []string { return append(slices.Clone(solved), names...) }
	hitSpans := []string{"admit", "cache.lookup", "canonicalize", "encode", "explain", "request"}
	variant := relabeledVariants(t, figure1SB, 2)[1]

	ways := []struct {
		name, tier, hist string
		cacheFault       bool
		spans            []string
	}{
		{"miss", "default", figure1SB, false, withCache("cache.lookup", "cache.solve", "canonicalize")},
		{"hit", "default", variant, false, hitSpans},
		{"heavy", "heavy", figure1SB, false, solved},
		{"cache-fault", "default", figure1SB, true, solved},
	}
	sent := 0
	for _, tc := range []struct{ model, verdict string }{
		{"SC", "forbidden"},
		{"TSO", "allowed"},
		{"PC", "allowed"},
		{"Causal", "allowed"},
	} {
		m, err := model.ByName(tc.model)
		if err != nil {
			t.Fatal(err)
		}
		var first checkResult
		for i, w := range ways {
			if w.cacheFault {
				fault.Set(fault.SvcCache, fault.Fault{Err: fault.ErrInjected})
			}
			id := fmt.Sprintf("paths-%s-%s", tc.model, w.name)
			body := fmt.Sprintf(`{"history":%q,"model":%q,"tier":%q,"explain":true}`, w.hist, tc.model, w.tier)
			res, resp := postCheck(t, base, body, map[string]string{"X-Request-ID": id})
			fault.Clear(fault.SvcCache)
			sent++
			if resp.StatusCode != http.StatusOK || res.Verdict != tc.verdict {
				t.Fatalf("%s: status %d verdict %q reason %q, want 200 %s", id, resp.StatusCode, res.Verdict, res.Reason, tc.verdict)
			}
			if i == 0 {
				first = res
			} else if res.Verdict != first.Verdict || res.Reason != first.Reason {
				t.Errorf("%s: verdict %q reason %q, but the %s way answered %q/%q",
					id, res.Verdict, res.Reason, ways[0].name, first.Verdict, first.Reason)
			}

			var e model.Explanation
			if err := json.Unmarshal(res.Explanation, &e); err != nil {
				t.Fatalf("%s: explanation %q (explain_error %q): %v", id, res.Explanation, res.ExplainError, err)
			}
			sys, err := history.Parse(w.hist)
			if err != nil {
				t.Fatal(err)
			}
			if err := model.ValidateExplanation(m, sys, &e); err != nil {
				t.Errorf("%s: explanation does not validate against the posted history: %v", id, err)
			}

			var names []string
			for name := range collectSpans(t, ring, id, "request") {
				names = append(names, name)
			}
			slices.Sort(names)
			want := slices.Sorted(slices.Values(w.spans))
			if !slices.Equal(names, want) {
				t.Errorf("%s: spans %v, want %v", id, names, want)
			}
		}
	}

	if rec, adm, _, _ := checkAccounting(t, reg); rec != int64(sent) || adm != int64(sent) {
		t.Errorf("received=%d admitted=%d, want all %d admitted", rec, adm, sent)
	}
	if _, hits, misses := vcacheBalance(t, reg); hits != 4 || misses != 4 {
		t.Errorf("vcache hits=%d misses=%d, want 4/4 (one miss and one hit per model)", hits, misses)
	}
}
