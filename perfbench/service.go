package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"time"

	"mobisense"
)

// opKind is one step of a service client's request mix.
type opKind int

const (
	opFresh   opKind = iota // POST /v1/runs with a body never sent before: a cache miss
	opHit                   // re-POST of this client's latest fresh body: a cache hit
	opSweep                 // POST /v1/sweeps of a small traced sweep (4 runs)
	opRecords               // GET /v1/jobs/{id}/records of the latest fresh job
	opTraces                // GET /v1/jobs/{id}/traces of the latest sweep job
)

// servicePattern is each client's repeating request mix: half fresh
// runs, the rest cache hits, a sweep and reads of stored results.
var servicePattern = []opKind{opFresh, opHit, opFresh, opRecords, opFresh, opSweep, opFresh, opHit, opFresh, opTraces}

// svcEnv is a running in-process service.
type svcEnv struct {
	dir string
	svc *mobisense.Service
	srv *httptest.Server
}

func startService(root string) (*svcEnv, error) {
	dir, err := os.MkdirTemp(root, "service-")
	if err != nil {
		return nil, err
	}
	svc, err := mobisense.NewService(dir, mobisense.ServiceOptions{Workers: runtime.NumCPU(), Jobs: 1})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	return &svcEnv{dir: dir, svc: svc, srv: httptest.NewServer(svc.Handler())}, nil
}

func (e *svcEnv) close() {
	e.srv.Close()
	e.svc.Close()
	os.RemoveAll(e.dir)
}

// jobView is the part of the service's job JSON the clients read.
type jobView struct {
	ID       string          `json:"id"`
	State    string          `json:"state"`
	CacheHit bool            `json:"cache_hit"`
	Error    string          `json:"error"`
	Result   json.RawMessage `json:"result"`
}

func (v jobView) terminal() bool {
	return v.State == "done" || v.State == "failed" || v.State == "cancelled"
}

// jobTiming splits one job's latency as its client saw it.
type jobTiming struct {
	submit time.Duration // POST round trip
	wait   time.Duration // from the POST's answer until the job left the queue
	total  time.Duration // POST sent until the terminal state arrived
}

// client is one closed-loop service user: it sends its next request only
// after the previous one completed.
type client struct {
	base string
	http *http.Client
	sp   *spans
	sz   size
	// seed makes every fresh body of this client unique; next counts them.
	seed uint64
	next uint64

	lastFresh    []byte // body of the latest fresh job
	lastFreshID  string
	lastFreshRes json.RawMessage
	lastSweepID  string

	op int         // position in servicePattern
	st clientStats // this client's share of the window
}

// serviceFields are the small inline fields the service's runs deploy
// on: an open square and the same square split by a wall. Their cluster
// region is dense enough that the initial deployment is connected.
func serviceFields(side float64) []mobisense.FieldSpec {
	open := mobisense.FieldSpec{Bounds: mobisense.RectSpec{MaxX: side, MaxY: side}}
	wall := open
	wall.Obstacles = []mobisense.ObstacleSpec{mobisense.RectObstacle(0.3*side, 0.6*side, 0.9*side, 0.7*side)}
	return []mobisense.FieldSpec{open, wall}
}

// runBody returns a small fresh run request.
func (c *client) runBody() []byte {
	i := c.next
	c.next++
	schemes := []string{"cpvf", "floor"}
	field := serviceFields(c.sz.ServiceSide)[(i/2)%2]
	b, _ := json.Marshal(mobisense.RunRequest{ // plain structs always encode
		Scheme:   schemes[i%2],
		Field:    &field,
		N:        c.sz.ServiceN,
		Duration: c.sz.ServiceDuration,
		Seed:     c.seed + i,
	})
	return b
}

// sweepBody returns a small traced sweep on the walled field: CPVF and
// FLOOR, two repeats.
func (c *client) sweepBody() []byte {
	i := c.next
	c.next++
	field := serviceFields(c.sz.ServiceSide)[1]
	b, _ := json.Marshal(mobisense.SweepRequest{ // plain structs always encode
		RunRequest: mobisense.RunRequest{
			Scheme:   "cpvf",
			Field:    &field,
			N:        c.sz.ServiceN,
			Duration: c.sz.ServiceDuration,
			Seed:     c.seed + i,
			Trace:    10,
		},
		Schemes: []string{"cpvf", "floor"},
		Repeats: 2,
	})
	return b
}

// submit POSTs a job and, unless it was answered at once, follows its
// event stream to the terminal state.
func (c *client) submit(path string, body []byte, spanName string) (jobView, jobTiming, error) {
	var tm jobTiming
	start := time.Now()
	id := c.sp.begin(spanName, 0)
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		c.sp.end(id, 1)
		return jobView{}, tm, err
	}
	var v jobView
	err = json.NewDecoder(resp.Body).Decode(&v)
	resp.Body.Close()
	c.sp.end(id, 1)
	tm.submit = time.Since(start)
	if err != nil {
		return v, tm, fmt.Errorf("decode job: %w", err)
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return v, tm, fmt.Errorf("POST %s: %s", path, resp.Status)
	}
	if !v.terminal() {
		answered := time.Now()
		wid := c.sp.begin("server.queue_wait", 0)
		v, err = c.follow(v.ID, func() {
			if wid != 0 {
				c.sp.end(wid, 1)
				wid = 0
			}
			tm.wait = time.Since(answered)
		})
		c.sp.end(wid, 1)
		if err != nil {
			return v, tm, err
		}
	}
	tm.total = time.Since(start)
	return v, tm, nil
}

// follow reads the job's server-sent events until the terminal state,
// calling dequeued once, on the first state that is no longer queued.
func (c *client) follow(id string, dequeued func()) (jobView, error) {
	resp, err := c.http.Get(c.base + "/v1/jobs/" + id + "/events")
	if err != nil {
		return jobView{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return jobView{}, fmt.Errorf("events %s: %s", id, resp.Status)
	}
	r := bufio.NewReader(resp.Body)
	event, left := "", false
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			return jobView{}, fmt.Errorf("events %s: stream ended before a terminal state: %w", id, err)
		}
		line = strings.TrimRight(line, "\n")
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			var v jobView
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &v); err != nil {
				return jobView{}, fmt.Errorf("events %s: %w", id, err)
			}
			if v.State != "queued" && !left {
				left = true
				dequeued()
			}
			if v.terminal() {
				return v, nil
			}
		}
	}
}

// get fetches a job sub-resource and returns its body.
func (c *client) get(path, spanName string) ([]byte, time.Duration, error) {
	start := time.Now()
	id := c.sp.begin(spanName, 0)
	defer c.sp.end(id, 1)
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, 0, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, 0, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return body, time.Since(start), nil
}

// clientStats is one client's share of a service window.
type clientStats struct {
	freshS          []float64
	hitS, submitS   []float64
	waitS, recordsS []float64
	runs            int
	attempted, ok   int
}

// check counts one op and returns ok.
func (s *clientStats) check(ok bool) bool {
	s.attempted++
	if ok {
		s.ok++
	}
	return ok
}

// fail reports a failed op and its cause on standard error.
func fail(op opKind, err error, detail any) {
	fmt.Fprintf(os.Stderr, "service op %d failed: %v %v\n", op, err, detail)
}

// step performs one op of the mix and records its outcome.
func (c *client) step(op opKind, st *clientStats) {
	if (op == opHit || op == opRecords) && c.lastFresh == nil || op == opTraces && c.lastSweepID == "" {
		op = opFresh
	}
	switch op {
	case opFresh:
		body := c.runBody()
		v, tm, err := c.submit("/v1/runs", body, "server.submit")
		if !st.check(err == nil && v.State == "done" && !v.CacheHit && validRunResult(v.Result)) {
			fail(op, err, v)
			return
		}
		c.lastFresh, c.lastFreshID, c.lastFreshRes = body, v.ID, v.Result
		st.freshS = append(st.freshS, tm.total.Seconds())
		st.submitS = append(st.submitS, tm.submit.Seconds())
		st.waitS = append(st.waitS, tm.wait.Seconds())
		st.runs++
	case opHit:
		v, tm, err := c.submit("/v1/runs", c.lastFresh, "server.cache_hit")
		if !st.check(err == nil && v.State == "done" && v.CacheHit && sameJSON(v.Result, c.lastFreshRes)) {
			fail(op, err, v)
			return
		}
		st.hitS = append(st.hitS, tm.total.Seconds())
	case opSweep:
		v, tm, err := c.submit("/v1/sweeps", c.sweepBody(), "server.submit")
		var sum mobisense.SweepJobResult
		if !st.check(err == nil && v.State == "done" && json.Unmarshal(v.Result, &sum) == nil && sum.Runs == 4 && sum.Errors == 0) {
			fail(op, err, v)
			return
		}
		c.lastSweepID = v.ID
		st.submitS = append(st.submitS, tm.submit.Seconds())
		st.waitS = append(st.waitS, tm.wait.Seconds())
		st.runs += sum.Runs
	case opRecords:
		body, d, err := c.get("/v1/jobs/"+c.lastFreshID+"/records", "server.records")
		if !st.check(err == nil && sameRecord(body, c.lastFreshRes)) {
			fail(op, err, string(body))
			return
		}
		st.recordsS = append(st.recordsS, d.Seconds())
	case opTraces:
		body, _, err := c.get("/v1/jobs/"+c.lastSweepID+"/traces", "server.traces")
		if !st.check(err == nil && json.Valid(body) && len(body) > 2) {
			fail(op, err, string(body))
		}
	}
}

// sameJSON reports whether two JSON documents have the same bytes once
// the transport's indentation is removed: the POST answer is indented,
// the event stream compact.
func sameJSON(a, b []byte) bool {
	var ca, cb bytes.Buffer
	return json.Compact(&ca, a) == nil && json.Compact(&cb, b) == nil && bytes.Equal(ca.Bytes(), cb.Bytes())
}

// runRecord is the part of a run job's result (its store record) the
// checks read.
type runRecord struct {
	Coverage  float64 `json:"coverage"`
	Coverage2 float64 `json:"coverage2"`
	Connected bool    `json:"connected"`
	Alive     int     `json:"alive"`
}

func validRunResult(raw json.RawMessage) bool {
	var r runRecord
	return json.Unmarshal(raw, &r) == nil && r.Coverage > 0 && r.Coverage <= 1 && r.Alive > 0
}

// sameRecord checks that GET …/records returned exactly the job's one
// record.
func sameRecord(jsonl []byte, result json.RawMessage) bool {
	lines := bytes.Split(bytes.TrimSpace(jsonl), []byte("\n"))
	if len(lines) != 1 {
		return false
	}
	var a, b runRecord
	return json.Unmarshal(lines[0], &a) == nil && json.Unmarshal(result, &b) == nil && a == b
}

// newClients returns nproc closed-loop clients of env sharing one HTTP
// transport. Client i starts its mix at a different offset, so the
// clients do not send the same kind of request in step.
func newClients(env *svcEnv, sp *spans, sz size, seed uint64) []*client {
	n := runtime.NumCPU()
	transport := http.DefaultTransport.(*http.Transport).Clone()
	transport.MaxIdleConnsPerHost = 2 * n
	hc := &http.Client{Transport: transport, Timeout: 2 * time.Minute}
	clients := make([]*client, n)
	for i := range clients {
		clients[i] = &client{base: env.srv.URL, http: hc, sp: sp, sz: sz,
			seed: seed + uint64(i)<<32, op: i * len(servicePattern) / n}
	}
	return clients
}

// drive runs every client for the window: each sends requests until the
// window has passed, then finishes the one in flight.
func drive(clients []*client, window time.Duration) {
	var wg sync.WaitGroup
	start := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for first := true; first || time.Since(start) < window; first = false {
				c.step(servicePattern[c.op%len(servicePattern)], &c.st)
				c.op++
			}
		}()
	}
	wg.Wait()
}

// merged returns the clients' stats combined, and closes their shared
// transport's idle connections.
func merged(clients []*client) clientStats {
	var all clientStats
	for _, c := range clients {
		st := c.st
		all.freshS = append(all.freshS, st.freshS...)
		all.hitS = append(all.hitS, st.hitS...)
		all.submitS = append(all.submitS, st.submitS...)
		all.waitS = append(all.waitS, st.waitS...)
		all.recordsS = append(all.recordsS, st.recordsS...)
		all.runs += st.runs
		all.attempted += st.attempted
		all.ok += st.ok
	}
	if len(clients) > 0 {
		clients[0].http.CloseIdleConnections()
	}
	return all
}

// serviceWarmup submits a fixed set of fresh runs, checks each result
// against the same configuration run through mobisense.Run, and records
// their coverage and connectivity in m. One pass of the whole request mix
// follows.
func serviceWarmup(env *svcEnv, sz size, seed uint64, m *measurement) error {
	hc := &http.Client{Timeout: 2 * time.Minute}
	defer hc.CloseIdleConnections()
	c := &client{base: env.srv.URL, http: hc, sz: sz, seed: seed}
	for i := 0; i < 8; i++ {
		body := c.runBody()
		v, _, err := c.submit("/v1/runs", body, "")
		var got runRecord
		if !m.check(err == nil && v.State == "done" && json.Unmarshal(v.Result, &got) == nil) {
			continue
		}
		var req mobisense.RunRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return err
		}
		f, err := mobisense.BuildFieldSpec(*req.Field, 1)
		if err != nil {
			return err
		}
		cfg := mobisense.DefaultConfig(mobisense.Scheme(req.Scheme))
		cfg.Field, cfg.N, cfg.Duration, cfg.Seed = f, req.N, req.Duration, req.Seed
		want, err := mobisense.Run(cfg)
		m.check(err == nil && want.Coverage == got.Coverage && want.Coverage2 == got.Coverage2 && want.Connected == got.Connected)
		m.coverage = append(m.coverage, got.Coverage)
		m.connected = append(m.connected, connectedShare(want, cfg.Field, cfg.Rc))
	}
	// One pass of the whole mix warms every handler.
	var st clientStats
	for _, op := range servicePattern {
		c.step(op, &st)
	}
	m.attempted += st.attempted
	m.ok += st.ok
	return nil
}

// The service window is cut into serviceSegments parts. Before each
// part, while the clients are idle, a batch of serviceSetupBatch service
// start-ups is timed. One start-up takes a fraction of a millisecond,
// mostly mkdir and listen, so the batch median drops the ones that
// stalled on the filesystem; the batches spread over the window sample
// the same host phases as the load.
const (
	serviceSegments   = 5
	serviceSetupBatch = 20
)

// timeStartups returns the median time of n service start-ups, each
// closed at once.
func timeStartups(root string, n int) (time.Duration, error) {
	times := make([]float64, n)
	for i := range times {
		env, d, err := timeOnce(func() (*svcEnv, error) { return startService(root) })
		if err != nil {
			return 0, err
		}
		env.close()
		times[i] = float64(d)
	}
	return time.Duration(median(times)), nil
}

// runService measures the in-process service under nproc closed-loop
// clients.
func runService(opt options) (measurement, error) {
	var m measurement
	env, err := startService(opt.workDir)
	if err != nil {
		return m, err
	}
	defer env.close()
	base := deriveSeed(opt.seed, 0)
	if err := serviceWarmup(env, opt.size, base, &m); err != nil {
		return m, err
	}

	clients := newClients(env, nil, opt.size, base+1<<40)
	for i := 0; i < serviceSegments; i++ {
		d, err := timeStartups(opt.workDir, serviceSetupBatch)
		if err != nil {
			return m, err
		}
		m.setup = append(m.setup, d)
		if _, err := m.timeJob(func() error {
			drive(clients, opt.window/serviceSegments)
			return nil
		}); err != nil {
			return m, err
		}
	}
	st := merged(clients)
	m.runS, m.runs = st.freshS, st.runs
	m.attempted += st.attempted
	m.ok += st.ok
	return m, nil
}
