package core

import (
	"math"
	"testing"

	"mobisense/internal/field"
	"mobisense/internal/geom"
)

func testParams() Params {
	p := DefaultParams()
	p.N = 20
	p.InitRegion = geom.R(0, 0, 100, 100)
	return p
}

func testWorld(t *testing.T) *World {
	t.Helper()
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	w, err := NewWorld(f, testParams())
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Fatalf("default params invalid: %v", err)
	}
	bad := []func(*Params){
		func(p *Params) { p.N = 0 },
		func(p *Params) { p.Rc = 0 },
		func(p *Params) { p.Rs = -1 },
		func(p *Params) { p.Speed = 0 },
		func(p *Params) { p.Period = 0 },
		func(p *Params) { p.Duration = -1 },
		func(p *Params) { p.PhaseJitter = 1 },
		func(p *Params) { p.CoverageRes = 0 },
		func(p *Params) { p.Rc = math.NaN() },
		func(p *Params) { p.Rs = math.Inf(1) },
		func(p *Params) { p.Speed = math.NaN() },
		func(p *Params) { p.Period = math.Inf(1) },
		func(p *Params) { p.Duration = math.NaN() },
		func(p *Params) { p.Duration = math.Inf(1) },
		func(p *Params) { p.PhaseJitter = math.NaN() },
		func(p *Params) { p.CoverageRes = math.NaN() },
		func(p *Params) { p.CoverageRes = math.Inf(1) },
	}
	for i, mutate := range bad {
		p := DefaultParams()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestNewWorldPlacement(t *testing.T) {
	w := testWorld(t)
	for i := range w.Sensors {
		pos := w.PosAt(i, 0)
		if !w.P.InitRegion.Contains(pos) {
			t.Errorf("sensor %d at %v outside init region", i, pos)
		}
		if !w.F.Free(pos) {
			t.Errorf("sensor %d placed in obstacle", i)
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	w1, _ := NewWorld(f, testParams())
	w2, _ := NewWorld(f, testParams())
	for i := range w1.Sensors {
		if !w1.PosAt(i, 0).Eq(w2.PosAt(i, 0)) {
			t.Fatal("same seed produced different initial layouts")
		}
	}
}

func TestSensorPosInterpolation(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	p := testParams()
	p.N = 1
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	// Install a step record directly: 0 moves (0,0)→(10,0) over [5, 10].
	w.stepFrom[0] = geom.V(0, 0)
	w.stepTo[0] = geom.V(10, 0)
	w.stepT0[0] = 5
	w.stepT1[0] = 10
	tests := []struct {
		t    float64
		want geom.Vec
	}{
		{0, geom.V(0, 0)},
		{5, geom.V(0, 0)},
		{7.5, geom.V(5, 0)},
		{10, geom.V(10, 0)},
		{99, geom.V(10, 0)},
	}
	for _, tt := range tests {
		if got := w.PosAt(0, tt.t); !got.Eq(tt.want) {
			t.Errorf("PosAt(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
	if !w.Moving(0, 7) || w.Moving(0, 4) || w.Moving(0, 10) {
		t.Error("Moving window incorrect")
	}
}

func TestBeginStepAccounting(t *testing.T) {
	w := testWorld(t)
	start := w.Pos(0)
	to := start.Add(geom.V(1.5, 0))
	w.BeginStep(0, to, 1.5, 1)
	if w.Sensors[0].Traveled != 1.5 {
		t.Errorf("traveled = %v", w.Sensors[0].Traveled)
	}
	if w.LastMoveTime() != 1 {
		t.Errorf("last move time = %v", w.LastMoveTime())
	}
	// Mid-step interpolation.
	mid := w.PosAt(0, 0.5)
	if !mid.Eq(start.Add(geom.V(0.75, 0))) {
		t.Errorf("mid = %v", mid)
	}
}

func TestBeginStepSpeedLimitPanics(t *testing.T) {
	w := testWorld(t)
	defer func() {
		if recover() == nil {
			t.Error("expected panic for over-speed step")
		}
	}()
	w.BeginStep(0, w.Pos(0).Add(geom.V(10, 0)), 10, 1) // 10 m in 1 s at V=2
}

func TestNeighborsExactRadius(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	p := testParams()
	p.N = 3
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	// Force positions.
	w.Teleport(0, geom.V(50, 50))
	w.Teleport(1, geom.V(50, 80))
	w.Teleport(2, geom.V(150, 150))

	got := w.Neighbors(0, 40)
	if len(got) != 1 || got[0] != 1 {
		t.Errorf("Neighbors = %v, want [1]", got)
	}
	got = w.Neighbors(0, 20)
	if len(got) != 0 {
		t.Errorf("Neighbors = %v, want none", got)
	}
}

func TestNeighborsSeeMovingSensors(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	p := testParams()
	p.N = 2
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	w.Teleport(0, geom.V(50, 50))
	// Sensor 1 starts outside radius 30 of sensor 0 and walks in.
	w.Teleport(1, geom.V(90, 50))
	w.BeginStep(1, geom.V(88, 50), 2, 1)
	w.E.RunUntil(1)
	w.BeginStep(1, geom.V(86, 50), 2, 1)
	w.E.RunUntil(1.75)
	// At t=1.75, sensor 1 is at 86.5: within 40 of 50? dist=36.5 <= 37.
	got := w.Neighbors(0, 37)
	if len(got) != 1 {
		t.Errorf("moving neighbor not seen: %v (pos %v)", got, w.Pos(1))
	}
}

func TestPeriodStart(t *testing.T) {
	w := testWorld(t)
	w.Sensors[0].Phase = 0.25
	tests := []struct {
		t, want float64
	}{
		{0, 0.25},
		{0.25, 0.25},
		{0.26, 1.25},
		{1.25, 1.25},
		{10.5, 11.25},
	}
	for _, tt := range tests {
		if got := w.PeriodStart(0, tt.t); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("PeriodStart(%v) = %v, want %v", tt.t, got, tt.want)
		}
	}
}

func TestMsgStats(t *testing.T) {
	var m MsgStats
	m.Count(MsgFlood, 3)
	m.Count(MsgInvite, 2)
	m.Count(MsgInvite, 1)
	m.Count(MsgKind(0), 5)  // invalid kind ignored
	m.Count(numMsgKinds, 5) // invalid kind ignored
	m.Count(MsgAck, -1)     // negative ignored
	if m.Total() != 6 {
		t.Errorf("total = %d", m.Total())
	}
	if m.Of(MsgInvite) != 3 {
		t.Errorf("invites = %d", m.Of(MsgInvite))
	}
	by := m.ByKind()
	if by["flood"] != 3 || by["invite"] != 3 || len(by) != 2 {
		t.Errorf("by kind = %v", by)
	}
}

func TestMsgKindStrings(t *testing.T) {
	kinds := []MsgKind{MsgFlood, MsgBeacon, MsgTreeCtl, MsgPathInquiry, MsgReport,
		MsgQuery, MsgInvite, MsgAccept, MsgAck, MsgUpdate}
	seen := make(map[string]bool)
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Errorf("kind %d has bad or duplicate name %q", k, s)
		}
		seen[s] = true
	}
	if MsgKind(0).String() != "unknown" {
		t.Error("zero kind should be unknown")
	}
}

func TestTreeBasics(t *testing.T) {
	tr := NewTree(5)
	if !tr.SetParent(0, BaseParent) {
		t.Fatal("SetParent to base failed")
	}
	if !tr.SetParent(1, 0) || !tr.SetParent(2, 0) || !tr.SetParent(3, 1) {
		t.Fatal("SetParent failed")
	}
	if tr.Parent(3) != 1 || tr.Parent(0) != BaseParent || tr.Parent(4) != NoParent {
		t.Error("parents wrong")
	}
	if !tr.InTree(3) || tr.InTree(4) {
		t.Error("InTree wrong")
	}
	if d := tr.Depth(3); d != 3 {
		t.Errorf("depth = %d, want 3", d)
	}
	if d := tr.Depth(4); d != -1 {
		t.Errorf("detached depth = %d", d)
	}
	anc := tr.AncestorsAppend(nil, 3)
	if len(anc) != 2 || anc[0] != 1 || anc[1] != 0 {
		t.Errorf("ancestors = %v", anc)
	}
	sub := tr.Subtree(0)
	if len(sub) != 4 {
		t.Errorf("subtree = %v", sub)
	}
}

func TestTreeLoopRejection(t *testing.T) {
	tr := NewTree(4)
	tr.SetParent(0, BaseParent)
	tr.SetParent(1, 0)
	tr.SetParent(2, 1)
	if tr.SetParent(0, 2) {
		t.Error("creating a cycle should fail")
	}
	if tr.SetParent(1, 1) {
		t.Error("self-parent should fail")
	}
	// Legal re-parent.
	if !tr.SetParent(2, 0) {
		t.Error("legal reparent failed")
	}
	if tr.Parent(2) != 0 {
		t.Error("reparent not applied")
	}
	// Old parent's children list updated.
	for _, c := range tr.Children(1) {
		if c == 2 {
			t.Error("stale child entry")
		}
	}
}

func TestTreeDetach(t *testing.T) {
	tr := NewTree(3)
	tr.SetParent(0, BaseParent)
	tr.SetParent(1, 0)
	tr.SetParent(2, 1)
	tr.Detach(1)
	if tr.Parent(1) != NoParent {
		t.Error("detach failed")
	}
	if tr.InTree(2) {
		t.Error("descendant of detached node should not be in tree")
	}
	if len(tr.Children(0)) != 0 {
		t.Error("children list not updated")
	}
}

func TestTreeDist(t *testing.T) {
	tr := NewTree(6)
	tr.SetParent(0, BaseParent)
	tr.SetParent(1, 0)
	tr.SetParent(2, 0)
	tr.SetParent(3, 1)
	tr.SetParent(4, 2)
	tests := []struct {
		a, b, want int
	}{
		{3, 4, 4}, // 3-1-0-2-4
		{1, 2, 2},
		{0, 3, 2},
		{3, 3, 0},
		{5, 0, -1}, // 5 detached
	}
	for _, tt := range tests {
		if got := tr.TreeDist(tt.a, tt.b); got != tt.want {
			t.Errorf("TreeDist(%d,%d) = %d, want %d", tt.a, tt.b, got, tt.want)
		}
	}
}

func TestUnitDiskReachable(t *testing.T) {
	base := geom.V(0, 0)
	positions := []geom.Vec{
		geom.V(5, 0),  // adjacent to base
		geom.V(12, 0), // via 0
		geom.V(50, 0), // isolated
	}
	got := UnitDiskReachable(positions, base, 10)
	want := []bool{true, true, false}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("reachable[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if AllConnected(positions, base, 10) {
		t.Error("AllConnected should be false")
	}
	if !AllConnected(positions[:2], base, 10) {
		t.Error("AllConnected should be true for first two")
	}
	if len(UnitDiskReachable(nil, base, 10)) != 0 {
		t.Error("empty input should return empty mask")
	}
}

func TestFloodFromBase(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	p := testParams()
	p.N = 4
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	// Chain: base (0,0) - s0 (30,0) - s1 (60,0) - s2 (90,0); s3 far away.
	coords := []geom.Vec{geom.V(30, 0), geom.V(60, 0), geom.V(90, 0), geom.V(190, 190)}
	for i, c := range coords {
		w.Teleport(i, c)
	}
	w.FloodFromBase(40)
	for i := 0; i < 3; i++ {
		if !w.Sensors[i].Connected {
			t.Errorf("sensor %d should be connected", i)
		}
		if !w.Tree.InTree(i) {
			t.Errorf("sensor %d should be in tree", i)
		}
	}
	if w.Sensors[3].Connected {
		t.Error("sensor 3 should be disconnected")
	}
	// Base + 3 reached sensors broadcast once each.
	if got := w.Msg.Of(MsgFlood); got != 4 {
		t.Errorf("flood messages = %d, want 4", got)
	}
	if w.ConnectedCount() != 3 {
		t.Errorf("connected = %d", w.ConnectedCount())
	}
}

func TestRouteWalkerLegs(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	legs := []Leg{
		{Target: geom.V(50, 10)},
		{Target: geom.V(50, 50)},
	}
	wk := NewRouteWalker(f, geom.V(10, 10), legs, 1)
	total := 0.0
	for !wk.Arrived() && !wk.Stuck() && total < 500 {
		total += wk.Advance(2)
	}
	if !wk.Arrived() {
		t.Fatalf("walker did not arrive (pos %v)", wk.Pos())
	}
	if wk.Pos().Dist(geom.V(50, 50)) > 1 {
		t.Errorf("final pos = %v", wk.Pos())
	}
	// Route length ≈ 40 + 40 with 0.5 m arrival tolerances.
	if total < 75 || total > 85 {
		t.Errorf("total moved = %v, want ~80", total)
	}
}

func TestRouteWalkerStopOnHitLegAdvances(t *testing.T) {
	// Leg 1 ends at the wall (stop-on-hit); leg 2 proceeds from there.
	f := field.MustNew(geom.R(0, 0, 200, 100), []geom.Polygon{geom.R(80, 0, 120, 60).Polygon()})
	legs := []Leg{
		{Target: geom.V(190, 30), StopOnHit: true}, // blocked by the slab
		{Target: geom.V(10, 90)},                   // back to the open corner
	}
	wk := NewRouteWalker(f, geom.V(10, 30), legs, 1)
	total := 0.0
	for !wk.Arrived() && !wk.Stuck() && total < 1000 {
		total += wk.Advance(2)
	}
	if !wk.Arrived() {
		t.Fatalf("walker stuck at %v", wk.Pos())
	}
	if wk.Pos().Dist(geom.V(10, 90)) > 1 {
		t.Errorf("final pos = %v", wk.Pos())
	}
}

func TestRouteWalkerEmptyLegs(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 100, 100), nil)
	wk := NewRouteWalker(f, geom.V(5, 5), nil, 1)
	wk.Advance(2)
	if !wk.Arrived() {
		t.Error("empty-route walker should immediately arrive")
	}
}

func TestLazyCoordinatorJoinsBase(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 200, 200), nil)
	p := testParams()
	p.N = 1
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	w.Teleport(0, geom.V(100, 0))
	walkers := []Walker{NewDirectWalker(f, geom.V(100, 0), f.Reference())}
	lc := NewLazyCoordinator(w, walkers, LazyConfig{ConnectRadius: p.Rc})

	var res LazyResult
	for i := 0; i < 100; i++ {
		res = lc.Step(0)
		if res.Outcome != LazyMoved {
			break
		}
		w.E.RunUntil(w.Now() + p.Period)
	}
	if res.Outcome != LazyJoinedBase {
		t.Fatalf("outcome = %v, want LazyJoinedBase", res.Outcome)
	}
	// Started 100 m out, connect radius 60: roughly 40 m of travel.
	if tr := w.Sensors[0].Traveled; tr < 35 || tr > 45 {
		t.Errorf("traveled = %v, want ~40", tr)
	}
}

func TestLazyCoordinatorWaitsOnPathParent(t *testing.T) {
	f := field.MustNew(geom.R(0, 0, 400, 400), nil)
	p := testParams()
	p.N = 2
	p.Rc = 60
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	// Sensor 1 is ahead of sensor 0 on the way to the base.
	w.Teleport(0, geom.V(300, 0))
	w.Teleport(1, geom.V(260, 0))
	walkers := []Walker{
		NewDirectWalker(f, geom.V(300, 0), f.Reference()),
		NewDirectWalker(f, geom.V(260, 0), f.Reference()),
	}
	lc := NewLazyCoordinator(w, walkers, LazyConfig{ConnectRadius: p.Rc})
	res := lc.Step(0)
	if res.Outcome != LazyWaiting {
		t.Fatalf("outcome = %v, want LazyWaiting", res.Outcome)
	}
	if lc.PathParent(0) != 1 {
		t.Errorf("path parent = %d, want 1", lc.PathParent(0))
	}
	// Sensor 1 sees no one ahead, so it moves.
	res = lc.Step(1)
	if res.Outcome != LazyMoved {
		t.Fatalf("sensor 1 outcome = %v, want LazyMoved", res.Outcome)
	}
	// And sensor 1 cannot adopt sensor 0 (which waits on it) even if 0
	// were ahead; here 0 is behind anyway.
	if lc.PathParent(1) != NoParent {
		t.Errorf("sensor 1 path parent = %d", lc.PathParent(1))
	}
}

func TestLazyCoordinatorDirectMutualWaitPrevented(t *testing.T) {
	// §3.3: "A sensor can take a neighbor as a real path parent, only when
	// that neighbor is not adopting the sensor itself as a path parent."
	// Construct two sensors each seeing the other as ahead; the second one
	// to decide must move instead of waiting.
	f := field.MustNew(geom.R(0, 0, 400, 400), nil)
	p := testParams()
	p.N = 2
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	a, b := geom.V(300, 300), geom.V(320, 320)
	w.Teleport(0, a)
	w.Teleport(1, b)
	// Each walker targets a point beyond the other sensor.
	walkers := []Walker{
		NewDirectWalker(f, a, geom.V(390, 390)),
		NewDirectWalker(f, b, geom.V(5, 5)),
	}
	lc := NewLazyCoordinator(w, walkers, LazyConfig{ConnectRadius: 10})
	if res := lc.Step(0); res.Outcome != LazyWaiting {
		t.Fatalf("sensor 0 outcome = %v, want LazyWaiting", res.Outcome)
	}
	if res := lc.Step(1); res.Outcome != LazyMoved {
		t.Fatalf("sensor 1 outcome = %v, want LazyMoved (direct cycle prevented)", res.Outcome)
	}
}

func TestLazyCoordinatorBreaksIndirectLoop(t *testing.T) {
	// An indirect waiting loop 0→1→2→0 must be detected by the
	// PathParentInquiry probe and broken (§3.3).
	f := field.MustNew(geom.R(0, 0, 500, 500), nil)
	p := testParams()
	p.N = 3
	p.Rc = 60
	w, err := NewWorld(f, p)
	if err != nil {
		t.Fatal(err)
	}
	w.Teleport(0, geom.V(300, 300))
	w.Teleport(1, geom.V(340, 300)) // ahead of 0 toward (400,300)
	w.Teleport(2, geom.V(300, 340)) // not ahead of 0
	walkers := []Walker{
		NewDirectWalker(f, geom.V(300, 300), geom.V(400, 300)),
		NewDirectWalker(f, geom.V(340, 300), geom.V(400, 300)),
		NewDirectWalker(f, geom.V(300, 340), geom.V(400, 300)),
	}
	lc := NewLazyCoordinator(w, walkers, LazyConfig{ConnectRadius: 10, LoopCheckAfter: 1})
	// Seed the rest of the loop: 1 waits on 2, 2 waits on 0.
	lc.SetPathParentForTest(1, 2)
	lc.SetPathParentForTest(2, 0)

	res := lc.Step(0)
	if res.Outcome != LazyWaiting {
		t.Fatalf("outcome = %v, want LazyWaiting on first step", res.Outcome)
	}
	if w.Msg.Of(MsgPathInquiry) == 0 {
		t.Fatal("no PathParentInquiry messages were sent")
	}
	// The loop was detected, so the path parent was disregarded; the next
	// step must move (sensor 1 is rejected, sensor 2 is not ahead).
	w.E.RunUntil(w.Now() + p.Period)
	if res := lc.Step(0); res.Outcome != LazyMoved {
		t.Fatalf("outcome after loop break = %v, want LazyMoved", res.Outcome)
	}
}

func TestLayoutAndAvgTraveled(t *testing.T) {
	w := testWorld(t)
	layout := w.Layout()
	if len(layout) != w.P.N {
		t.Fatalf("layout size = %d", len(layout))
	}
	if w.AvgTraveled() != 0 {
		t.Error("initial traveled should be 0")
	}
	w.BeginStep(0, w.Pos(0).Add(geom.V(2, 0)), 2, 1)
	if got := w.AvgTraveled(); math.Abs(got-2.0/float64(w.P.N)) > 1e-12 {
		t.Errorf("avg traveled = %v", got)
	}
}
