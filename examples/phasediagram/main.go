// Phasediagram reproduces a small version of the paper's Figure 3: from
// one fixed initial configuration, run the chain at a grid of (λ, γ)
// values and classify each endpoint into one of the four phases —
// compressed/expanded × separated/integrated.
package main

import (
	"context"
	"fmt"
	"log"

	"sops"
)

func main() {
	cells, err := sops.Sweep(context.Background(), sops.SweepSpec{
		Lambdas: []float64{1.05, 4}, Gammas: []float64{1, 6},
		Counts: sops.Bichromatic(60), Layout: sops.LayoutLine,
		Steps: 2_000_000, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%8s %8s %7s %8s  %s\n", "lambda", "gamma", "alpha", "segr", "phase")
	for _, c := range cells {
		fmt.Printf("%8.3g %8.3g %7.3f %8.3f  %s\n",
			c.Lambda, c.Gamma, c.Snap.Alpha, c.Snap.Segregation, c.Snap.Phase)
	}
}
