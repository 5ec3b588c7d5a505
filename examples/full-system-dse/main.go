// Full-system design-space exploration (paper §VI-D and conclusion):
// enumerate every (UAV × onboard compute × autonomy algorithm)
// combination in the catalog, characterize each with the F-1 model,
// and extract the velocity-optimal pick and the velocity/power/weight
// Pareto frontier — the "automated design space exploration" the paper
// proposes as future use of the model.
package main

import (
	"context"
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/units"
)

func main() {
	cat := catalog.Default()
	space := dse.Space{
		UAVs:       []string{catalog.UAVAscTecPelican, catalog.UAVDJISpark},
		Computes:   []string{catalog.ComputeNCS, catalog.ComputeTX2, catalog.ComputeRasPi4},
		Algorithms: []string{catalog.AlgoDroNet, catalog.AlgoTrailNet, catalog.AlgoCAD2RL, catalog.AlgoVGG16},
	}

	// The Explorer walks the cross product in grains — inline for a
	// plain exploration like this one, across all cores for a heavy
	// mission objective — and streams candidates in deterministic
	// order; collecting them is just one consumer of the stream. The
	// context scopes the work: cancelling it (a timeout, a dropped
	// client) stops the exploration between candidates instead of
	// draining the space.
	explorer := dse.Explorer{Catalog: cat, Space: space}
	var cands []dse.Candidate
	for cand, err := range explorer.Candidates(context.Background()) {
		if err != nil {
			log.Fatal(err)
		}
		cands = append(cands, cand)
	}
	fmt.Printf("Explored %d buildable combinations (Fig. 15b space).\n\n", len(cands))

	fmt.Println("Top 5 by safe velocity:")
	for i, c := range dse.TopK(cands, dse.MaxVelocity, 5) {
		fmt.Printf("  %d. %-58s %6.2f m/s  %v\n", i+1, c.Name(),
			c.Analysis.SafeVelocity.MetersPerSecond(), c.Analysis.Bound)
	}
	fmt.Println()

	front, err := dse.ParetoFront(cands, dse.MaxVelocity, dse.MinPower, dse.MinPayload)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Velocity / power / weight Pareto frontier:")
	for _, c := range front {
		fmt.Printf("  %-58s %6.2f m/s  %5.1f W  %5.0f g\n", c.Name(),
			c.Analysis.SafeVelocity.MetersPerSecond(),
			c.Power.Watts(), c.Analysis.Config.Payload.Grams())
	}
	fmt.Println()

	// A constrained pick: best velocity within a 2 W compute budget.
	frugal, err := dse.Enumerate(cat, space, dse.Constraints{MaxPower: units.Watts(2)})
	if err != nil {
		log.Fatal(err)
	}
	if len(frugal) > 0 {
		best, err := dse.Best(frugal, dse.MaxVelocity)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Best under a 2 W compute budget: %s (%.2f m/s)\n",
			best.Name(), best.Analysis.SafeVelocity.MetersPerSecond())
	}

	// The balanced-design view: which combination sits closest to its
	// knee?
	balanced, err := dse.Best(cands, dse.Balance)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Most balanced design (closest to its knee): %s (gap %.2f×)\n",
		balanced.Name(), balanced.Analysis.GapFactor)
}
