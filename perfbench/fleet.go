package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/parallax-arch/parallax/internal/obs"
	"github.com/parallax-arch/parallax/internal/phys/workload"
	"github.com/parallax-arch/parallax/internal/phys/world"
	"github.com/parallax-arch/parallax/internal/serve"
)

// The fleet's load. README.md ("serve-fleet load") records where each
// figure comes from; the sizing figures are from the machine its
// Sizing section names.
const (
	// fleetHz is paraxserve's default -hz.
	fleetHz = 60
	// fleetBudget is a quarter of the 16.7 ms tick period at fleetHz,
	// some ten to twenty times the step of a session here: only a
	// stalled step misses it. paraxserve's default, 0, would switch off
	// the deadline scheduler, which this workload exists to reach.
	fleetBudget = 4 * time.Millisecond
	// sessionScale sizes every session: small scenes, so a two-shard
	// fleet holds on the order of a hundred of them.
	sessionScale = 0.1
	poolSize     = 8
	poolSteps    = 120
	// fleetSetupReps is how often the server start and the snapshot
	// pool (~0.2 s) are repeated to report their time (setupTime).
	fleetSetupReps = 7
	// background is the pool sessions resident under the open loop: a
	// quarter of the ~125-150 sessions the two-shard fleet sustains.
	// Requests then wait behind real ticks, and the two CPUs keep the
	// headroom that 60 sessions did not always leave them.
	background = 32
	// The open loop: users arrive at userRate per second; each creates
	// a session, queries it userQueries times at queryHz, fetches one
	// snapshot and deletes it. About ten user sessions are resident and
	// some 430 requests a second are due. No traffic trace backs this
	// mix: it is a placeholder of the shape of a short-lived client.
	userRate    = 10.0
	userQueries = 40
	queryHz     = 50.0
	// The step rate is measured over rateEpisodes episodes of
	// fixedSessions sessions uploaded from the pool: some 45% of the
	// sustained count, below the point where the ticker skips ticks.
	fixedSessions = 60
	rateEpisodes  = 4
	// The ramp then adds users at rampRate per second, keeping their
	// sessions, until the delivered tick rate falls below sustainShare
	// of the schedule for two windows running, or rampLimit has passed:
	// at rampRate the ~125-150 sessions of capacity take ~3 s to reach.
	rampRate     = 50.0
	rampWindow   = 250 * time.Millisecond
	rampLimit    = 6 * time.Second
	sustainShare = 0.9
)

// fleetScenes are the non-cloth paper scenes sessions are made of.
var fleetScenes = []string{"Periodic", "Ragdoll", "Continuous", "Explosions"}

// fleet is one in-process server reached over loopback HTTP.
type fleet struct {
	srv    *serve.Server
	tr     *obs.Tracer
	reg    *obs.Registry
	hs     *http.Server
	served chan error
	base   string
	client *http.Client
	pool   [][]byte       // uploadable PAXW snapshots
	worlds []*world.World // the worlds the pool was taken from
}

// startFleet starts the server and generates the snapshot pool: the
// benchmark's set-up.
func startFleet(cfg config) (*fleet, error) {
	f := &fleet{tr: obs.NewTracer(), reg: obs.NewRegistry(), served: make(chan error, 1)}
	srv, err := serve.New(serve.Config{Shards: cfg.Threads, Threads: 1, Hz: fleetHz, Budget: fleetBudget}, f.tr, f.reg)
	if err != nil {
		return nil, err
	}
	f.srv = srv
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Drain()
		return nil, err
	}
	f.base = "http://" + ln.Addr().String()
	f.hs = &http.Server{Handler: srv.Handler()}
	go func() { f.served <- f.hs.Serve(ln) }()
	f.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     cfg.Threads,
		MaxIdleConnsPerHost: cfg.Threads,
		DisableCompression:  true,
	}}
	for i := 0; i < poolSize; i++ {
		b, _ := workload.ByName(fleetScenes[i%len(fleetScenes)])
		w := b.Build(sessionScale)
		perturb(w, cfg.Seed+int64(i), io.Discard)
		// Settle each pool world (Explosions detonates in its first
		// second) so its sessions step at a steady cost. The seed
		// changes the states, through the perturbation, and not the
		// work of set-up.
		for s := 0; s < poolSteps; s++ {
			w.Step()
		}
		f.pool = append(f.pool, w.Snapshot())
		f.worlds = append(f.worlds, w)
	}
	return f, nil
}

// stop closes the HTTP side, waits for its serve loop, and drains the
// fleet, which stops every shard goroutine.
func (f *fleet) stop() error {
	err := f.hs.Shutdown(context.Background())
	if serr := <-f.served; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	f.client.CloseIdleConnections()
	if derr := f.srv.Drain(); err == nil {
		err = derr
	}
	return err
}

// reqRec is one request of the load: its route, when it was due
// (from the start of the load), its latency from that moment, and
// whether it succeeded.
type reqRec struct {
	route string
	due   time.Duration
	ms    float64
	ok    bool
}

// load is the request log shared by the user goroutines.
type load struct {
	mu    sync.Mutex
	reqs  []reqRec
	late  []float64 // generator lateness, ms
	fails []error
}

func (l *load) add(r reqRec, err error) {
	l.mu.Lock()
	l.reqs = append(l.reqs, r)
	if err != nil {
		l.fails = append(l.fails, err)
	}
	l.mu.Unlock()
}

// await waits until the request due at t may be sent and returns the
// moment its latency is timed from. A request that is already late
// because the user's previous one was slow is timed from t: that delay
// is the system's. Otherwise the user sleeps until t, and the request
// is timed from when it woke: the Go runtime's timers wake a sleeper in
// an otherwise idle process up to a millisecond or more late, a delay
// of the load generator sharing the process, not of the server. That
// wake-up delay is recorded as the generator's lateness.
func (l *load) await(t time.Time) time.Time {
	if !time.Now().Before(t) {
		return t
	}
	time.Sleep(time.Until(t))
	woke := time.Now()
	l.mu.Lock()
	l.late = append(l.late, float64(woke.Sub(t).Nanoseconds())/1e6)
	l.mu.Unlock()
	return woke
}

// call issues one request, checks its status, and returns the
// response body.
func (f *fleet) call(method, path, ctype string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, f.base+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if ctype != "" {
		req.Header.Set("Content-Type", ctype)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: status %d, want %d: %s", method, path, resp.StatusCode, want, strings.TrimSpace(string(data)))
	}
	return data, nil
}

// createSpec is one generated session: a scene by name, or an upload
// from the pool.
type createSpec struct {
	scene  string
	upload int // pool index, -1 for a scene create
}

func (f *fleet) create(spec createSpec) (string, string, error) {
	route, ctype := "create-scene", "application/json"
	var body []byte
	if spec.upload >= 0 {
		route, ctype, body = "create-upload", "application/octet-stream", f.pool[spec.upload]
	} else {
		body, _ = json.Marshal(map[string]any{"scene": spec.scene, "scale": sessionScale})
	}
	data, err := f.call("POST", "/sessions", ctype, body, http.StatusCreated)
	if err != nil {
		return route, "", err
	}
	var info serve.SessionInfo
	if err := json.Unmarshal(data, &info); err != nil || info.ID == "" {
		return route, "", fmt.Errorf("create: bad session info %q", data)
	}
	return route, info.ID, nil
}

func (f *fleet) query(id string, box [2][3]float64) error {
	body, _ := json.Marshal(map[string]any{"min": box[0], "max": box[1]})
	data, err := f.call("POST", "/sessions/"+id+"/query", "application/json", body, http.StatusOK)
	if err != nil {
		return err
	}
	var qr struct {
		Bodies []int32 `json:"bodies"`
		Count  *int    `json:"count"`
	}
	if err := json.Unmarshal(data, &qr); err != nil || qr.Count == nil || *qr.Count != len(qr.Bodies) {
		return fmt.Errorf("query: bad response %q", data)
	}
	return nil
}

func (f *fleet) snapshot(id string) ([]byte, error) {
	data, err := f.call("GET", "/sessions/"+id+"/snapshot", "", nil, http.StatusOK)
	if err == nil && !bytes.HasPrefix(data, []byte("PAXW")) {
		err = fmt.Errorf("snapshot: %d bytes without the PAXW magic", len(data))
	}
	return data, err
}

func (f *fleet) remove(id string) error {
	_, err := f.call("DELETE", "/sessions/"+id, "", nil, http.StatusNoContent)
	return err
}

// user is one generated open-loop user.
type user struct {
	arrive time.Duration
	spec   createSpec
	boxes  [userQueries][2][3]float64
}

// genUsers generates the open loop's users: the seed draws their query
// boxes, while the session mix is fixed so every seed loads the fleet
// alike.
func genUsers(rng *rand.Rand, n int, rate float64) []user {
	us := make([]user, n)
	for i := range us {
		us[i].arrive = time.Duration(float64(i) / rate * float64(time.Second))
		us[i].spec = specOf(i)
		for q := range us[i].boxes {
			c := [3]float64{rng.Float64()*20 - 10, rng.Float64() * 4, rng.Float64()*20 - 10}
			h := 1 + rng.Float64()*4
			us[i].boxes[q] = [2][3]float64{{c[0] - h, c[1] - h, c[2] - h}, {c[0] + h, c[1] + h, c[2] + h}}
		}
	}
	return us
}

// specOf is the i-th user's session: uploads and scene creates
// alternate, each cycling through the scenes (the pool holds the same
// scenes, seeded and stepped a seeded number of times).
func specOf(i int) createSpec {
	if i%2 == 0 {
		return createSpec{upload: (i / 2) % poolSize}
	}
	return createSpec{scene: fleetScenes[(i/2)%len(fleetScenes)], upload: -1}
}

// runUser plays one user's requests, each timed as await describes.
// A failed request counts as missing any latency limit: it is logged
// with the limit as its latency, and so is every request the user could
// not send after a failed create.
func (f *fleet) runUser(l *load, start time.Time, u user, limitMS float64, rec *recorder, lane int, parent int32) {
	dues := u.dues()
	do := func(route string, op func() error) bool {
		due := start.Add(dues[0])
		dues = dues[1:]
		from := l.await(due)
		sp := rec.start(lane, "serve "+route, parent)
		err := op()
		rec.stop(sp)
		ms := float64(time.Since(from).Nanoseconds()) / 1e6
		if err != nil {
			ms = limitMS
		}
		l.add(reqRec{route, due.Sub(start), ms, err == nil}, err)
		return err == nil
	}
	var id string
	route := "create-scene"
	if u.spec.upload >= 0 {
		route = "create-upload"
	}
	if !do(route, func() (err error) { _, id, err = f.create(u.spec); return err }) {
		for _, d := range dues {
			l.add(reqRec{"skipped", d, limitMS, false}, errors.New("request not sent: create failed"))
		}
		return
	}
	for q := 0; q < userQueries; q++ {
		box := u.boxes[q]
		do("query", func() error { return f.query(id, box) })
	}
	do("snapshot", func() error { _, err := f.snapshot(id); return err })
	do("delete", func() error { return f.remove(id) })
}

// dues lists when each of the user's requests is due, from the start of
// the load: the create on arrival, the queries from two query periods
// later, then the snapshot and the delete a period apart.
func (u user) dues() []time.Duration {
	step := time.Duration(float64(time.Second) / queryHz)
	ds := []time.Duration{u.arrive}
	for q := 0; q < userQueries+2; q++ {
		ds = append(ds, u.arrive+time.Duration(q+2)*step)
	}
	return ds
}

// userLifetime is how long one open-loop user stays, arrival to delete.
const userLifetime = time.Duration((userQueries + 4) * float64(time.Second) / queryHz)

// checkUploadReadback uploads every pool snapshot to a tickless server
// and reads it back: the bytes must be identical.
func checkUploadReadback(res *result, pool [][]byte) error {
	srv, err := serve.New(serve.Config{Shards: 1}, nil, nil)
	if err != nil {
		return err
	}
	srv.Start()
	defer srv.Drain()
	h := srv.Handler()
	do := func(method, path, ctype string, body []byte) *httptest.ResponseRecorder {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if ctype != "" {
			req.Header.Set("Content-Type", ctype)
		}
		rr := httptest.NewRecorder()
		h.ServeHTTP(rr, req)
		return rr
	}
	for i, snap := range pool {
		err := func() error {
			rr := do("POST", "/sessions", "application/octet-stream", snap)
			var info serve.SessionInfo
			if rr.Code != http.StatusCreated || json.Unmarshal(rr.Body.Bytes(), &info) != nil {
				return fmt.Errorf("upload %d: status %d", i, rr.Code)
			}
			rr = do("GET", "/sessions/"+info.ID+"/snapshot", "", nil)
			if rr.Code != http.StatusOK || !bytes.Equal(rr.Body.Bytes(), snap) {
				return fmt.Errorf("upload %d: read back %d bytes (status %d), not the %d uploaded", i, rr.Body.Len(), rr.Code, len(snap))
			}
			if rr = do("DELETE", "/sessions/"+info.ID, "", nil); rr.Code != http.StatusNoContent {
				return fmt.Errorf("upload %d: delete status %d", i, rr.Code)
			}
			return nil
		}()
		res.op(err)
	}
	return nil
}

// scrape reads the fleet's counters from its /metrics endpoint.
func (f *fleet) scrape() (map[string]float64, error) {
	data, err := f.call("GET", "/metrics", "", nil, http.StatusOK)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(data))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		if k, v, ok := strings.Cut(line, " "); ok {
			if x, err := strconv.ParseFloat(v, 64); err == nil {
				out[k] = x
			}
		}
	}
	return out, nil
}

// stepRate measures rateEpisodes episodes. Each uploads the pool's
// snapshots, cycled, as fixedSessions sessions, lets them settle for a
// window, measures one second of ticks, and deletes them. Every episode
// replays the same simulated work, and every tick of a shard steps its
// share of the sessions, so an episode's rate is the resident count
// over the mean tick duration: the World.Step calls per second the
// fleet's shards deliver while ticking. The fleet stays below its
// capacity, so the ticker never skips a tick. The heap is sampled with
// the last episode's sessions resident.
func (f *fleet) stepRate(res *result) []block {
	tickSpan := f.tr.Span("shard-tick")
	var episodes []block
	for e := 0; e < rateEpisodes; e++ {
		var ids []string
		for i := 0; i < fixedSessions; i++ {
			_, id, err := f.create(createSpec{upload: i % poolSize})
			res.op(err)
			if err == nil {
				ids = append(ids, id)
			}
		}
		time.Sleep(rampWindow)
		n0, ns0 := f.tr.SpanTotal(tickSpan)
		time.Sleep(time.Second)
		n1, ns1 := f.tr.SpanTotal(tickSpan)
		episodes = append(episodes, block{work: float64(len(ids)) * float64(n1-n0), secs: float64(ns1-ns0) / 1e9})
		if e == rateEpisodes-1 {
			res.heapCheckpoint()
		}
		for _, id := range ids {
			res.op(f.remove(id))
		}
	}
	return episodes
}

// ramp adds users at rampRate, without deletes, until the delivered
// tick rate is below sustainShare of the schedule for two windows
// running or the time is up, and returns the highest resident count at
// which a window kept schedule, with every window's tick share.
func (f *fleet) ramp(cfg config, l *load, limit time.Duration, limitMS float64, rec *recorder, parent int32) (sustained int, shares []float64) {
	ticks := f.reg.Counter("serve/ticks")
	schedule := fleetHz * float64(cfg.Threads) // ticks due per second
	var wg sync.WaitGroup
	stopAt := time.Now().Add(limit)
	next := time.Now()
	interval := time.Duration(float64(time.Second) / rampRate)
	for n, below := 0, 0; below < 2 && time.Now().Before(stopAt); {
		resident := f.srv.Sessions()
		t0, k0 := time.Now(), f.reg.CounterValue(ticks)
		end := t0.Add(rampWindow)
		for ; next.Before(end); next = next.Add(interval) {
			spec, due, lane := specOf(n), next, 1<<20+n
			n++
			wg.Add(1)
			go func() {
				defer wg.Done()
				time.Sleep(time.Until(due))
				sp := rec.start(lane, "serve create", parent)
				route, _, err := f.create(spec)
				rec.stop(sp)
				ms := float64(time.Since(due).Nanoseconds()) / 1e6
				if err != nil {
					ms = limitMS
				}
				l.add(reqRec{"ramp-" + route, 0, ms, err == nil}, err)
			}()
		}
		time.Sleep(time.Until(end))
		share := float64(f.reg.CounterValue(ticks)-k0) / (schedule * time.Since(t0).Seconds())
		shares = append(shares, share)
		if share >= sustainShare {
			sustained = max(sustained, resident)
			below = 0
		} else {
			below++
		}
	}
	wg.Wait()
	return sustained, shares
}

func runServeFleet(cfg config, res *result) error {
	var setup []float64
	var f *fleet
	for i := 0; i < fleetSetupReps; i++ {
		if f != nil {
			if err := f.stop(); err != nil {
				return err
			}
		}
		t0 := setupStart()
		var err error
		if f, err = startFleet(cfg); err != nil {
			return err
		}
		setup = append(setup, time.Since(t0).Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			f.stop()
		}
	}()
	h := fnv.New64a()
	for _, p := range f.pool {
		h.Write(p) // hash writes never fail
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	// Half the time is the open loop; the step-rate episodes take some
	// six seconds, the ramp reaches capacity within three or four.
	openLoop := cfg.Seconds / 2
	users := genUsers(rng, max(1, int((openLoop-userLifetime.Seconds())*userRate)), userRate)
	for _, u := range users {
		fmt.Fprintf(h, "%v %v %v", u.arrive, u.spec, u.boxes)
	}
	res.Inputs = fmt.Sprintf("%016x", h.Sum64())
	if err := checkUploadReadback(res, f.pool); err != nil {
		return err
	}
	if cfg.Trace {
		snapshotLayer(res, f.worlds)
	}
	res.heapCheckpoint()

	limitMS := cfg.Seconds * 1000
	rec := newRecorder(cfg.Trace, fmt.Sprintf("serve-fleet-%d-%d", cfg.Seed, time.Now().UnixNano()))
	root := rec.start(0, "serve-fleet", -1)
	var l load
	ph := rec.start(0, "open-loop", root)
	// The background sessions tick for a window before the first user
	// arrives, and are deleted after the last has left.
	var resident []string
	for i := 0; i < background; i++ {
		_, id, err := f.create(createSpec{upload: i % poolSize})
		res.op(err)
		if err == nil {
			resident = append(resident, id)
		}
	}
	start := time.Now().Add(rampWindow)
	var wg sync.WaitGroup
	for i, u := range users {
		wg.Add(1)
		go func(i int, u user) {
			defer wg.Done()
			f.runUser(&l, start, u, limitMS, rec, 1+i, ph)
		}(i, u)
	}
	wg.Wait()
	for _, id := range resident {
		res.op(f.remove(id))
	}
	rec.stop(ph)
	open := l.reqs
	late := l.late
	l.reqs, l.late = nil, nil

	ph = rec.start(0, "step rate", root)
	episodes := f.stepRate(res)
	rec.stop(ph)
	ph = rec.start(0, "ramp", root)
	sustained, shares := f.ramp(cfg, &l, rampLimit, limitMS, rec, ph)
	rec.stop(ph)
	rec.stop(root)

	counters, err := f.scrape()
	res.op(err)
	tickN, tickNs := f.tr.SpanTotal(f.tr.Span("shard-tick"))
	stopped = true
	if err := f.stop(); err != nil {
		return err
	}

	for _, r := range append(open, l.reqs...) {
		res.Attempted++
		if !r.ok {
			res.Failed++
		}
	}
	for i, e := range l.fails {
		if i < 20 {
			res.Checks = append(res.Checks, e.Error())
		}
	}
	res.note("ramp: delivered tick share per %v window %s", rampWindow, fmtShares(shares))

	// Each second of due time is one block: the open loop repeats the
	// same mix of routes every second.
	byRoute := map[string][]float64{}
	var perSecond []block
	var creates []float64
	for _, r := range open {
		sec := int(r.due / time.Second)
		for len(perSecond) <= sec {
			perSecond = append(perSecond, block{})
		}
		perSecond[sec].samples = append(perSecond[sec].samples, r.ms)
		byRoute[r.route] = append(byRoute[r.route], r.ms)
		if strings.HasPrefix(r.route, "create") {
			creates = append(creates, r.ms)
		}
	}
	if cfg.Trace {
		for _, route := range []string{"create-scene", "create-upload", "query", "snapshot", "delete"} {
			t := summarize(byRoute[route])
			res.setTiming("serve."+route+"_ms_p50", t, "ms", false)
		}
		res.set("serve.tick_ms_mean", ratio(float64(tickNs)/1e6, float64(tickN)), "ms")
		for _, c := range []string{"deadline_misses", "degraded", "evictions", "rejections"} {
			res.set("serve."+c, counters["parallax_serve_"+c+"_total"], "count")
		}
		res.setTiming("bench.generator_late_ms_p99", summarize(late), "ms", true)
		if err := rec.finishTrace(cfg, res); err != nil {
			return err
		}
		return nil
	}
	if len(perSecond) > 2 {
		// The first and last seconds, while users arrive and depart,
		// carry a different route mix and fewer requests.
		perSecond = perSecond[1 : len(perSecond)-1]
	}
	t := blockTiming(perSecond)
	ct := summarize(creates)
	res.set("setup_s", setupTime(setup), "s")
	res.setTiming("latency_ms_p50", t, "ms", false)
	res.set("throughput_per_s", medianRate(episodes), "1/s")
	res.headline("req_ms", t.P50, "ms", &t)
	res.headline("create_ms", ct.P50, "ms", &ct)
	res.headline("sessions_sustained", float64(sustained), "count", nil)
	res.headline("ramp_windows", float64(len(shares)), "count", nil)
	return nil
}

func fmtShares(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 2, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// snapshotLayer times World.Snapshot and World.Restore on the pool's
// worlds directly.
func snapshotLayer(res *result, ws []*world.World) {
	var enc, dec, size []float64
	for rep := 0; rep < 20; rep++ {
		for _, w := range ws {
			t0 := time.Now()
			snap := w.Snapshot()
			enc = append(enc, float64(time.Since(t0).Nanoseconds())/1e3)
			nw := world.New()
			t0 = time.Now()
			err := nw.Restore(snap)
			dec = append(dec, float64(time.Since(t0).Nanoseconds())/1e3)
			res.op(err)
			size = append(size, float64(len(snap)))
		}
	}
	res.setTiming("snapshot.encode_us", summarize(enc), "us", false)
	res.setTiming("snapshot.restore_us", summarize(dec), "us", false)
	res.set("snapshot.bytes", median(size), "bytes")
}
