//go:build ignore

// gen.go regenerates the wire-format store fixture in this directory. It
// was run against the commit before the root package's result types became
// aliases of the store's wire types, so manifest.json and records.jsonl
// hold the bytes that version wrote. TestWireFormatFixture re-runs the same
// sweep and replays the fixture through LoadStores, and requires identical
// bytes both ways: any drift in a JSON tag, field order or omitempty of a
// persisted type fails it.
//
// The sweep exercises every persisted result type: axis assignments (a
// string-valued cpvf.osc axis), final and initial layouts (Store.Layouts),
// trace samples with and without layout snapshots (TraceLayouts thinned by
// LayoutStride) and convergence metrics.
//
//	go run testdata/wire/gen.go
package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"mobisense"
)

func main() {
	dir := filepath.Join("testdata", "wire")
	cfg := mobisense.DefaultConfig(mobisense.SchemeFLOOR)
	cfg.N = 10
	cfg.Duration = 60
	cfg.Trace = &mobisense.TraceOptions{Stride: 20, Layouts: true, LayoutStride: 2}
	osc, err := mobisense.ParseAxis("cpvf.osc=none,two-step")
	if err != nil {
		panic(err)
	}
	sweep := mobisense.Sweep{
		Base:      cfg,
		Scenarios: []string{"random"},
		Axes:      []mobisense.ParamAxis{osc},
		Repeats:   2,
		Seed:      13,
	}

	tmp, err := os.MkdirTemp("", "wire")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(tmp)
	store := filepath.Join(tmp, "store")
	if _, err := sweep.Run(context.Background(), mobisense.BatchOptions{
		Workers: 1,
		Store:   &mobisense.Store{Dir: store, Layouts: true, Trace: true},
	}); err != nil {
		panic(err)
	}
	// The timing sidecar is wall-clock data, so only the deterministic
	// files are kept.
	for _, name := range []string{"manifest.json", "records.jsonl"} {
		data, err := os.ReadFile(filepath.Join(store, name))
		if err != nil {
			panic(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			panic(err)
		}
	}
	fmt.Println("fixture regenerated under", dir)
}
