// Two-knob grid characterization (the engine behind the Skyline
// /grid.svg endpoint): sweep the (payload × compute rate) plane of the
// paper's reference system with dse.GridSweep, render the safe-velocity
// field as a terminal heatmap, and show a context-scoped streaming
// exploration — the same request-cancellation discipline the /explore
// endpoint applies when a client disconnects.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro/internal/catalog"
	"repro/internal/dse"
	"repro/internal/plot"
)

func main() {
	cat := catalog.Default()
	cfg, err := cat.BuildConfig(catalog.Selection{
		UAV:       catalog.UAVAscTecPelican,
		Compute:   catalog.ComputeTX2,
		Algorithm: catalog.AlgoDroNet,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The velocity field over payload (0–600 g) × compute rate
	// (1–200 Hz): nx·ny analyses evaluated on the engine's chunk loop.
	grid, err := dse.GridSweep(cfg,
		dse.KnobPayload, 0, 600, 48,
		dse.KnobComputeRate, 1, 200, 24)
	if err != nil {
		log.Fatal(err)
	}
	hm := &plot.Heatmap{
		Title:  "Safe velocity: payload × compute rate (Pelican + DroNet)",
		XLabel: dse.KnobPayload.String(),
		YLabel: dse.KnobComputeRate.String(),
		ZLabel: "v_safe (m/s)",
		Xs:     grid.Xs,
		Ys:     grid.Ys,
		Values: grid.VelocityGrid(),
	}
	ascii, err := hm.ASCII(72, 20)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(ascii)

	// A context-scoped exploration over a synthetically enlarged
	// catalog: cancelling the context mid-stream stops the engine's
	// in-flight workers — exactly what a dropped /explore connection
	// triggers on the Skyline server. Here the consumer cancels after
	// 500 candidates; the remaining 25100 are never analyzed.
	big := catalog.Synthetic(16, 40, 40) // 25600 candidates
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	e := dse.Explorer{Catalog: big, Space: dse.Space{
		UAVs:       big.UAVNames(),
		Computes:   big.ComputeNames(),
		Algorithms: big.AlgorithmNames(),
	}}
	seen := 0
	for cand, err := range e.Candidates(ctx) {
		if err != nil {
			if errors.Is(err, context.Canceled) {
				fmt.Printf("cancelled after %d of 25600 candidates — workers stopped, not drained\n", seen)
				return
			}
			log.Fatal(err)
		}
		seen++
		if seen == 500 {
			cancel()
		}
		_ = cand
	}
	fmt.Printf("explored all %d candidates before cancellation propagated\n", seen)
}
