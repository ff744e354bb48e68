package mobisense

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	istore "mobisense/internal/store"
)

// wireSweep reconstructs the sweep that produced the checked-in wire-format
// fixture (testdata/wire, see gen.go there): a traced FLOOR sweep with
// layout snapshots, persisted layouts and a string-valued axis, so its
// records carry every persisted result type.
func wireSweep(t *testing.T) Sweep {
	t.Helper()
	cfg := DefaultConfig(SchemeFLOOR)
	cfg.N = 10
	cfg.Duration = 60
	cfg.Trace = &TraceOptions{Stride: 20, Layouts: true, LayoutStride: 2}
	return Sweep{
		Base:      cfg,
		Scenarios: []string{"random"},
		Axes:      []ParamAxis{mustParseAxis(t, "cpvf.osc=none,two-step")},
		Repeats:   2,
		Seed:      13,
	}
}

// requireSameFiles fails unless dir's deterministic store files match the
// fixture's byte for byte.
func requireSameFiles(t *testing.T, fixture, dir string) {
	t.Helper()
	for _, name := range []string{"manifest.json", "records.jsonl"} {
		want, err := os.ReadFile(filepath.Join(fixture, name))
		if err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the wire fixture:\ngot:  %.300s\nwant: %.300s", name, got, want)
		}
	}
}

// TestWireFormatFixture pins the on-disk format of every persisted result
// type against bytes written by an earlier build. Unlike the in-process
// round-trip tests it catches a drifted JSON tag, field order or omitempty
// on both the write path (a live sweep) and the read path (LoadStores
// replayed back through recordFrom).
func TestWireFormatFixture(t *testing.T) {
	fixture := filepath.Join("testdata", "wire")
	sweep := wireSweep(t)

	// Write path: the same sweep run today writes the fixture's bytes.
	live := filepath.Join(t.TempDir(), "live")
	if _, err := sweep.Run(context.Background(), BatchOptions{
		Workers: 1,
		Store:   &Store{Dir: live, Layouts: true, Trace: true},
	}); err != nil {
		t.Fatal(err)
	}
	requireSameFiles(t, fixture, live)

	// Read path: the fixture's records, loaded and re-appended, reproduce
	// the fixture's bytes.
	data, err := LoadStores(fixture)
	if err != nil {
		t.Fatal(err)
	}
	m, recs, err := istore.ReadDir(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if len(data.Runs) != len(recs) || len(recs) != 4 {
		t.Fatalf("loaded %d runs from %d records, want 4", len(data.Runs), len(recs))
	}
	specs, err := sweep.Expand()
	if err != nil {
		t.Fatal(err)
	}
	m.Complete = false
	replay := filepath.Join(t.TempDir(), "replay")
	sess, err := (&Store{Dir: replay, Layouts: true, Trace: true}).begin(m)
	if err != nil {
		t.Fatal(err)
	}
	for seq, br := range data.Runs {
		if br.Err != nil {
			t.Fatalf("fixture run %d failed: %v", br.Spec.Index, br.Err)
		}
		// Loaded specs carry no config; borrow the expanded one so the
		// record's config fingerprint can be recomputed.
		sp := specs[br.Spec.Index]
		loaded := br.Spec
		loaded.Config = sp.Config
		if specKey(loaded) != specKey(sp) {
			t.Fatalf("loaded spec %+v does not match the expanded sweep", br.Spec)
		}
		sess.append(seq, sp, br.Result, nil, 0)
	}
	if err := sess.close(); err != nil {
		t.Fatal(err)
	}
	requireSameFiles(t, fixture, replay)
}
