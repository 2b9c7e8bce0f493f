package incident

import "repro/model"

// verdictString is the verdict word of v as a bundle records it.
func verdictString(v model.Verdict) string {
	verdict, _ := v.Outcome()
	return verdict
}
