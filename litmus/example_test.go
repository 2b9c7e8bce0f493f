package litmus_test

import (
	"fmt"
	"strings"

	"repro/litmus"
	"repro/model"
)

func ExampleRun() {
	// Check the paper's Figure 1 against SC and TSO.
	tc, err := litmus.ByName("Fig1-SB")
	if err != nil {
		panic(err)
	}
	results, err := litmus.Run(tc, []model.Model{model.SC, model.TSO})
	if err != nil {
		panic(err)
	}
	for _, r := range results {
		fmt.Printf("%s under %s: allowed=%v (matches corpus: %v)\n",
			r.Test, r.Model, r.Allowed, r.Match())
	}
	// Output:
	// Fig1-SB under SC: allowed=false (matches corpus: true)
	// Fig1-SB under TSO: allowed=true (matches corpus: true)
}

func ExampleReadTest() {
	src := `name: my-test
expect: SC=forbid PRAM=allow
---
p0: w(x)1 r(y)0
p1: w(y)1 r(x)0
`
	tc, err := litmus.ReadTest(strings.NewReader(src))
	if err != nil {
		panic(err)
	}
	fmt.Println(tc.Name, tc.History.NumOps(), "ops")
	// Output:
	// my-test 4 ops
}
