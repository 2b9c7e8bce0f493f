package litmus

import (
	"context"
	"testing"

	"repro/model"
)

// TestParallelMatchesSequentialOnCorpus is the acceptance differential test:
// every corpus test (Figures 1–4 included) under every model must get the
// same verdict from the parallel checker (Workers=4) as from the sequential
// oracle (Workers=1), and every parallel witness must independently verify.
func TestParallelMatchesSequentialOnCorpus(t *testing.T) {
	forEachCorpusModel(t, func(t *testing.T, tc Test, m model.Model) {
		seq := model.WithWorkers(m, 1)
		par := model.WithWorkers(m, 4)
		sv, serr := seq.Allows(context.Background(), tc.History)
		pv, perr := par.Allows(context.Background(), tc.History)
		if (serr == nil) != (perr == nil) {
			t.Errorf("%s: sequential err=%v, parallel err=%v", m.Name(), serr, perr)
			return
		}
		if serr != nil {
			return // both reject the question consistently
		}
		if sv.Allowed != pv.Allowed {
			t.Errorf("%s: sequential allowed=%v, parallel allowed=%v",
				m.Name(), sv.Allowed, pv.Allowed)
		}
		if pv.Allowed {
			if err := model.VerifyWitness(m, tc.History, pv.Witness); err != nil {
				t.Errorf("%s: parallel witness fails verification: %v", m.Name(), err)
			}
		}
	})
}
