package relate_test

import (
	"context"
	"fmt"

	"repro/model"
	"repro/relate"
)

func ExampleBuildMatrix() {
	// Classify the paper's figures and read containments off the matrix.
	mx, err := relate.BuildMatrix(context.Background(), relate.CorpusHistories(), model.All(), 1)
	if err != nil {
		panic(err)
	}
	fmt.Println("SC ⊆ TSO over the corpus:", mx.StrongerEq("SC", "TSO"))
	fmt.Println("TSO ⊂ PC strictly:", mx.StrongerEq("TSO", "PC") && !mx.StrongerEq("PC", "TSO"))
	fmt.Println("PC ∥ Causal:", !mx.StrongerEq("PC", "Causal") && !mx.StrongerEq("Causal", "PC"))
	// Output:
	// SC ⊆ TSO over the corpus: true
	// TSO ⊂ PC strictly: true
	// PC ∥ Causal: true
}

func ExampleDensity() {
	// Exhaustive classification of EVERY 1-processor 2-operation history
	// over one location: SC allows 4 of the 6.
	counts, _, total, err := relate.Density(context.Background(), 1, 2, 1, 1, []model.Model{model.SC})
	if err != nil {
		panic(err)
	}
	fmt.Printf("SC allows %d of %d\n", counts["SC"], total)
	// Output:
	// SC allows 4 of 6
}

func ExampleCheckLatticeExhaustive() {
	violations, total, err := relate.CheckLatticeExhaustive(context.Background(), 2, 2, 1, 1)
	if err != nil {
		panic(err)
	}
	fmt.Printf("checked %d histories, %d violations\n", total, len(violations))
	// Output:
	// checked 104 histories, 0 violations
}
