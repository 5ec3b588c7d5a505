package experiments

import (
	"context"
	"fmt"

	"repro/internal/catalog"
	"repro/internal/dse"
)

// ext-objectives exercises every registered mission-level evaluator
// (docs/OBJECTIVES.md) over the preset catalog: one table per
// objective with its top candidates under the headline metric. It is
// both a demonstration of the objective registry and a cheap smoke
// test that every evaluator scores the presets without error.

func init() {
	register(Experiment{
		ID:    "ext-objectives",
		Title: "Extension: mission-level objectives over the preset catalog",
		Run:   runExtObjectives,
	})
}

func runExtObjectives(ctx context.Context, c *catalog.Catalog) (Result, error) {
	res := Result{ID: "ext-objectives", Title: "Mission-level objective rankings"}
	space := dse.Space{
		UAVs:       c.UAVNames(),
		Computes:   c.ComputeNames(),
		Algorithms: []string{catalog.AlgoDroNet},
	}
	for _, name := range dse.ObjectiveNames() {
		ev, err := dse.NewObjective(name, c, 1)
		if err != nil {
			return Result{}, err
		}
		e := dse.Explorer{
			Catalog:   c,
			Space:     space,
			Objective: ev,
		}
		cands, err := e.ExploreContext(ctx)
		if err != nil {
			return Result{}, fmt.Errorf("experiments: objective %s: %w", name, err)
		}
		cols := ev.Columns()
		top := dse.TopK(cands, dse.ColumnObjective(cols, 0), 3)
		t := Table{
			Title:   fmt.Sprintf("%s (top 3 by %s)", name, cols[0].Name),
			Columns: []string{"configuration"},
		}
		for _, col := range cols {
			t.Columns = append(t.Columns, col.Name)
		}
		for _, cand := range top {
			row := []string{cand.Name()}
			for _, v := range cand.Metrics {
				row = append(row, fmtF(v, 3))
			}
			t.AddRow(row...)
		}
		res.Tables = append(res.Tables, t)
	}
	return res, nil
}
