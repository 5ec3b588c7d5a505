// Command experiments regenerates the paper's tables and figures. Each
// experiment's tables print to stdout and, with -out, land in a results
// directory together with SVG renderings of the figures.
//
// Usage:
//
//	experiments                 # run everything, print tables
//	experiments -id fig11       # one experiment
//	experiments -out results/   # also write .txt and .svg files
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"

	"repro/internal/catalog"
	"repro/internal/experiments"
)

func main() {
	// Ctrl-C cancels the context, which stops in-flight explorations
	// between candidates instead of draining them.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	id := fs.String("id", "", "run a single experiment (default: all)")
	out := fs.String("out", "", "directory to write .txt tables and .svg figures")
	ascii := fs.Bool("ascii", false, "also render charts as ASCII on stdout")
	workers := fs.Int("workers", 0, "cap the cores used by the exploration/sweep engines (0 = all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers > 0 {
		// The DSE engine sizes its worker pools from GOMAXPROCS.
		runtime.GOMAXPROCS(*workers)
	}

	var todo []experiments.Experiment
	if *id != "" {
		e, err := experiments.ByID(*id)
		if err != nil {
			return err
		}
		todo = []experiments.Experiment{e}
	} else {
		todo = experiments.All()
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
	}

	cat := catalog.Default()
	for _, e := range todo {
		res, err := e.Run(ctx, cat)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		text := res.Render()
		fmt.Fprint(stdout, text)
		if *ascii {
			for _, ch := range res.Charts {
				a, err := ch.ASCII(76, 18)
				if err != nil {
					return fmt.Errorf("%s: %w", e.ID, err)
				}
				fmt.Fprintln(stdout, a)
			}
			for _, hm := range res.Heatmaps {
				a, err := hm.ASCII(76, 18)
				if err != nil {
					return fmt.Errorf("%s: %w", e.ID, err)
				}
				fmt.Fprintln(stdout, a)
			}
		}
		if *out != "" {
			if err := os.WriteFile(filepath.Join(*out, e.ID+".txt"), []byte(text), 0o644); err != nil {
				return err
			}
			type svgRenderer interface{ SVG(io.Writer) error }
			var figures []svgRenderer
			for _, ch := range res.Charts {
				figures = append(figures, ch)
			}
			for _, hm := range res.Heatmaps {
				figures = append(figures, hm)
			}
			for i, fig := range figures {
				name := fmt.Sprintf("%s_%d.svg", e.ID, i)
				f, err := os.Create(filepath.Join(*out, name))
				if err != nil {
					return err
				}
				err = fig.SVG(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
				if err != nil {
					return err
				}
			}
		}
	}
	return nil
}
