package main

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunSingleExperiment(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "fig13"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "fig13") || !strings.Contains(out, "39") {
		t.Errorf("fig13 output incomplete: %s", out)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "fig99"}, &buf); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestRunWritesArtifacts(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "fig12", "-out", dir}, &buf); err != nil {
		t.Fatal(err)
	}
	txt, err := os.ReadFile(filepath.Join(dir, "fig12.txt"))
	if err != nil {
		t.Fatalf("table file missing: %v", err)
	}
	if !strings.Contains(string(txt), "162") {
		t.Error("fig12 table content wrong")
	}
	svg, err := os.ReadFile(filepath.Join(dir, "fig12_0.svg"))
	if err != nil {
		t.Fatalf("SVG file missing: %v", err)
	}
	if !strings.Contains(string(svg), "<svg") {
		t.Error("SVG content wrong")
	}
}

func TestRunASCIICharts(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "fig5", "-ascii"}, &buf); err != nil {
		t.Fatal(err)
	}
	// The ASCII rendering includes the axis separator line.
	if !strings.Contains(buf.String(), "+---") {
		t.Error("ASCII chart missing")
	}
}

func TestRunBadFlag(t *testing.T) {
	var buf strings.Builder
	if err := run(context.Background(), []string{"-nope"}, &buf); err == nil {
		t.Error("unknown flag accepted")
	}
}

func TestRunGridHeatmapArtifacts(t *testing.T) {
	dir := t.TempDir()
	var buf strings.Builder
	if err := run(context.Background(), []string{"-id", "ext-grid", "-out", dir, "-ascii"}, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// The ASCII heatmap prints its value-range caption and the field.
	if !strings.Contains(out, "v_safe (m/s):") || !strings.Contains(out, "+---") {
		t.Errorf("ASCII heatmap missing:\n%s", out)
	}
	svg, err := os.ReadFile(filepath.Join(dir, "ext-grid_0.svg"))
	if err != nil {
		t.Fatalf("heatmap SVG missing: %v", err)
	}
	if !strings.Contains(string(svg), "<svg") || !strings.Contains(string(svg), "payload (g)") {
		t.Error("heatmap SVG content wrong")
	}
}
