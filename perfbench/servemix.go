package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand/v2"
	"net"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/campaign"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve-mix request mix. Each operation is a pure function of the seed
// and its index in the sequence, so any prefix of the sequence is
// reproducible; the clients consume it in order. The sequence is stratified:
// every block of blockOps operations holds the same number of each kind, in
// a seed-drawn order, so that two seeds offer the same load.
//
// No record of etserve traffic exists, so every share, size, exponent and
// budget below is a chosen value, not a measured one; README.md gives the
// reason for each.
const (
	blockOps     = 100
	freshSlots   = 7 // new specs: a miss, a simulation and a store put
	joinSlots    = 2 // new specs the other clients submit too: single-flight joins
	hotSpecs     = 32
	hotCampaigns = 4
	zipfExponent = 1.1
	campaignReps = 4
	// cacheBudget is below the hot set's resident size, so fresh puts evict
	// hot entries and some repeats miss again.
	cacheBudget = 24 << 10
	// blockRequests is the request count whose completion time is one
	// serve-mix "pass" (wall_s).
	blockRequests = 1000
	// serveSetupReps is how many servers a run starts and warms to time
	// set-up; each costs a warm-up of the hot set.
	serveSetupReps = 9
)

// Slots of a block: fresh specs, joins, one new campaign, one repeated
// campaign, and hot-set repeats in the rest.
const (
	slotJoin        = freshSlots
	slotCampaign    = freshSlots + joinSlots
	slotCampaignHot = slotCampaign + 1
	slotHot         = slotCampaignHot + 1
)

type opKind int

const (
	opHot opKind = iota
	opFresh
	opJoin
	opCampaign
	opCampaignHot
)

// serveOp is one request of the sequence.
type serveOp struct {
	index int
	kind  opKind
	hot   int // hot-set or hot-campaign index
	path  string
	body  []byte
	spec  scenario.Spec  // /simulate requests
	camp  *campaign.Spec // /campaign requests
}

// serveMix generates the request sequence of one seed.
type serveMix struct {
	seed      uint64
	hot       []serveOp
	campaigns []serveOp
	zipf      []float64 // cumulative hot-set weights
}

// specTemplate fixes everything about a new spec except the seed of its
// seeded input, so that every block offers the same work. The templates'
// costs differ by two orders of magnitude, so the slots are chosen to keep
// each reported percentile inside one cluster of costs instead of between
// two: the three 5x5 EAR random-mapping slots (of nine new specs per block,
// joins included) hold miss_p50_ms, and the two 6x6 slots (2% of all
// requests) hold req_p99_ms.
type specTemplate struct {
	mesh    int
	alg     string
	battery string
	payload bool
	jobs    int
	variant int // 0: random mapping, 1: static link failures, 2: runtime link faults
}

var templates = [freshSlots]specTemplate{
	{mesh: 5, alg: scenario.AlgorithmSDR, jobs: 2, variant: 1},
	{mesh: 4, alg: scenario.AlgorithmEAR, variant: 0},
	{mesh: 5, alg: scenario.AlgorithmEAR, variant: 0},
	{mesh: 5, alg: scenario.AlgorithmEAR, variant: 0},
	{mesh: 5, alg: scenario.AlgorithmEAR, battery: scenario.BatteryIdeal, payload: true, variant: 1},
	{mesh: 6, alg: scenario.AlgorithmEAR, variant: 2},
	{mesh: 6, alg: scenario.AlgorithmEAR, variant: 2},
}

// joinTemplates and hotTemplates index templates.
var (
	joinTemplates = [joinSlots]int{1, 2}
	hotTemplates  = []int{1, 0, 2}
)

// mixSpec draws a spec of a template, keying its seeded input by a fresh
// seed so that every draw has its own fingerprint.
func mixSpec(rng *rand.Rand, t specTemplate) scenario.Spec {
	sp := scenario.Spec{Mesh: t.mesh, Algorithm: t.alg, Battery: t.battery, VerifyPayload: t.payload, ConcurrentJobs: t.jobs}
	switch t.variant {
	case 0:
		sp.Mapping, sp.MappingSeed = scenario.MappingRandom, rng.Uint64()
	case 1:
		sp.FailedLinkFraction, sp.FailedLinkSeed = 0.1, rng.Uint64()
	default:
		sp.Faults = fmt.Sprintf("link=0.05:8,seed=%d", rng.Uint32())
	}
	return sp
}

func campaignSpec(rng *rand.Rand) campaign.Spec {
	return campaign.Spec{
		Scenario:     scenario.Spec{Mesh: 4, Mapping: scenario.MappingRandom},
		Replications: campaignReps,
		Seed:         rng.Uint64(),
	}
}

func simulateOp(index int, kind opKind, sp scenario.Spec) (serveOp, error) {
	body, err := sp.CanonicalJSON()
	return serveOp{index: index, kind: kind, path: "/simulate", body: body, spec: sp}, err
}

func campaignOp(index int, kind opKind, sp campaign.Spec) (serveOp, error) {
	body, err := sp.CanonicalJSON()
	return serveOp{index: index, kind: kind, path: "/campaign", body: body, camp: &sp}, err
}

func newServeMix(seed uint64) (*serveMix, error) {
	m := &serveMix{seed: seed}
	rng := rand.New(rand.NewPCG(seed, 0x5e12e))
	total := 0.0
	for i := 0; i < hotSpecs; i++ {
		op, err := simulateOp(-1, opHot, mixSpec(rng, templates[hotTemplates[i%len(hotTemplates)]]))
		if err != nil {
			return nil, err
		}
		op.hot = i
		m.hot = append(m.hot, op)
		total += math.Pow(float64(i+1), -zipfExponent)
		m.zipf = append(m.zipf, total)
	}
	for i := range m.zipf {
		m.zipf[i] /= total
	}
	for i := 0; i < hotCampaigns; i++ {
		op, err := campaignOp(-1, opCampaignHot, campaignSpec(rng))
		if err != nil {
			return nil, err
		}
		op.hot = i
		m.campaigns = append(m.campaigns, op)
	}
	return m, nil
}

// op returns request i of the sequence.
func (m *serveMix) op(i int) (serveOp, error) {
	block := rand.New(rand.NewPCG(m.seed, ^uint64(i/blockOps)))
	slot := block.Perm(blockOps)[i%blockOps]
	rng := rand.New(rand.NewPCG(m.seed, uint64(i)+1))
	switch {
	case slot < slotJoin:
		return simulateOp(i, opFresh, mixSpec(rng, templates[slot]))
	case slot < slotCampaign:
		return simulateOp(i, opJoin, mixSpec(rng, templates[joinTemplates[slot-slotJoin]]))
	case slot == slotCampaign:
		return campaignOp(i, opCampaign, campaignSpec(rng))
	case slot == slotCampaignHot:
		op := m.campaigns[rng.IntN(len(m.campaigns))]
		op.index = i
		return op, nil
	}
	k := sort.SearchFloat64s(m.zipf, rng.Float64())
	if k >= len(m.hot) {
		k = len(m.hot) - 1
	}
	op := m.hot[k]
	op.index = i
	return op, nil
}

// serveEnv is one in-process etserve on a loopback listener with its
// keep-alive HTTP client and the reference responses of the warmed hot set.
type serveEnv struct {
	mix       *serveMix
	srv       *serve.Server
	hs        *http.Server
	served    chan struct{}
	url       string
	transport *http.Transport
	client    *http.Client
	hotRef    [][]byte
	campRef   [][]byte
}

// startServe starts a server sized to workers and warms the hot set with
// workers concurrent clients; the cold responses, once checkWarm has passed
// them, are the references every later response for the same spec must equal
// byte for byte.
func startServe(m *serveMix, workers int) (*serveEnv, error) {
	srv, err := serve.New(serve.Config{Workers: workers, CacheBudget: cacheBudget})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	tr := &http.Transport{MaxIdleConnsPerHost: workers, MaxConnsPerHost: workers, DisableCompression: true}
	e := &serveEnv{
		mix: m, srv: srv, hs: &http.Server{Handler: srv.Handler()}, served: make(chan struct{}),
		url: "http://" + ln.Addr().String(), transport: tr, client: &http.Client{Transport: tr},
		hotRef: make([][]byte, len(m.hot)), campRef: make([][]byte, len(m.campaigns)),
	}
	go func() {
		defer close(e.served)
		e.hs.Serve(ln)
	}()
	warm := append(append([]serveOp(nil), m.hot...), m.campaigns...)
	errs := make([]error, len(warm))
	forEach(len(warm), workers, func(i int) {
		op := warm[i]
		code, _, body, err := e.post(op)
		if err == nil && code != http.StatusOK {
			err = fmt.Errorf("warming %s: HTTP %d: %s", op.path, code, body)
		}
		errs[i] = err
		if op.kind == opHot {
			e.hotRef[op.hot] = body
		} else {
			e.campRef[op.hot] = body
		}
	})
	for _, err := range errs {
		if err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

func (e *serveEnv) post(op serveOp) (int, string, []byte, error) {
	resp, err := e.client.Post(e.url+op.path, "application/json", bytes.NewReader(op.body))
	if err != nil {
		return 0, "", nil, err
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, resp.Header.Get(serve.HeaderCache), body, err
}

func (e *serveEnv) get(path string) ([]byte, error) {
	resp, err := e.client.Get(e.url + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: HTTP %d", path, resp.StatusCode)
	}
	return io.ReadAll(resp.Body)
}

// close shuts the server down and waits until it has stopped serving.
func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	e.hs.Shutdown(ctx)
	<-e.served
	e.transport.CloseIdleConnections()
}

// sample is one completed request; its operation is regenerated from the
// index when needed.
type sample struct {
	index   int
	kind    opKind
	cache   string // X-Cache: hit, miss or join
	latency time.Duration
	done    time.Duration // completion, from the start of the pass
	frames  int64         // frames the response reports it simulated (misses)
}

// cacheStatus maps the X-Cache header onto constant strings.
func cacheStatus(h string) string {
	switch h {
	case "hit":
		return "hit"
	case "miss":
		return "miss"
	case "join":
		return "join"
	}
	return ""
}

// servePass is one measured window.
type servePass struct {
	samples []sample
	wall    time.Duration
	clients int
}

// serveChecker verifies responses: hot repeats and joins must equal the
// first response byte for byte, warmed and fresh results must match the
// committed ones where the seed has them, and every result must pass the
// invariants.
type serveChecker struct {
	mu       sync.Mutex
	env      *serveEnv
	expected map[string]string // default seed only
	first    map[int][]byte    // join op index -> first response
	bounds   map[int]float64   // mesh -> J*
	// hotFrames holds the frames of each hot spec's verified cold response.
	hotFrames []int64
}

func (c *serveChecker) bound(sp scenario.Spec) (float64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j, ok := c.bounds[sp.Mesh]; ok {
		return j, nil
	}
	j, err := theoremBound(scenario.Spec{Mesh: sp.Mesh, Battery: scenario.BatteryIdeal})
	if err == nil {
		c.bounds[sp.Mesh] = j
	}
	return j, err
}

// check returns the frames a miss simulated, or an error for a wrong answer.
func (c *serveChecker) check(op serveOp, code int, cache string, body []byte) (int64, error) {
	if code != http.StatusOK {
		return 0, fmt.Errorf("op %d %s: HTTP %d: %s", op.index, op.path, code, strings.TrimSpace(string(body)))
	}
	switch op.kind {
	case opHot:
		if !bytes.Equal(body, c.env.hotRef[op.hot]) {
			return 0, fmt.Errorf("op %d: hot spec %d (%s) differs from its cold response", op.index, op.hot, cache)
		}
		if cache == "miss" {
			return c.hotFrames[op.hot], nil
		}
		return 0, nil
	case opCampaignHot:
		if !bytes.Equal(body, c.env.campRef[op.hot]) {
			return 0, fmt.Errorf("op %d: hot campaign %d (%s) differs from its cold response", op.index, op.hot, cache)
		}
		return 0, nil
	case opCampaign:
		var cs serve.CampaignSummary
		if err := json.Unmarshal(body, &cs); err != nil {
			return 0, fmt.Errorf("op %d: %w", op.index, err)
		}
		got := campaignSummary(cs)
		if want, ok := c.expected[strconv.Itoa(op.index)]; ok && got != want {
			return 0, fmt.Errorf("op %d: campaign %q, committed %q", op.index, got, want)
		}
		if err := checkCampaign(cs); err != nil {
			return 0, fmt.Errorf("op %d: %w", op.index, err)
		}
		return 0, nil
	case opJoin:
		c.mu.Lock()
		first, seen := c.first[op.index]
		if !seen {
			c.first[op.index] = body
		}
		c.mu.Unlock()
		if seen && !bytes.Equal(first, body) {
			return 0, fmt.Errorf("op %d: the two submissions of one spec got different bytes", op.index)
		}
	}
	var res sim.Result
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, fmt.Errorf("op %d: %w", op.index, err)
	}
	if op.kind == opFresh || op.kind == opJoin {
		got := summary(res) + "\t" + digest(body)
		if want, ok := c.expected[strconv.Itoa(op.index)]; ok && got != want {
			return 0, fmt.Errorf("op %d: result %q, committed %q", op.index, got, want)
		}
	}
	if err := checkInvariants(op.spec, res, c.bound); err != nil {
		return 0, fmt.Errorf("op %d: %w", op.index, err)
	}
	if cache == "miss" {
		return res.Frames, nil
	}
	return 0, nil
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:6])
}

// campaignSummary is the committed form of a campaign response: the
// replicate count and the means of jobs, frames and energy.
func campaignSummary(cs serve.CampaignSummary) string {
	means := map[string]float64{}
	for _, m := range cs.Metrics {
		means[m.Name] = m.Mean
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return fmt.Sprintf("campaign\t%d\t%s\t%s\t%s", cs.Replications, f(means["jobs completed"]),
		f(means["TDMA frames"]), f(means["energy consumed [pJ]"]))
}

// runServePass drives the server with clients closed-loop clients for d and
// checks every response. A client that draws a join op hands the same spec
// to every other client, which submits it as its next request.
func runServePass(env *serveEnv, chk *serveChecker, clients int, d time.Duration, r *report) (servePass, error) {
	var (
		next    atomic.Int64
		mu      sync.Mutex
		pass    = servePass{clients: clients}
		boards  = make([]chan serveOp, clients)
		genErr  error
		wg      sync.WaitGroup
		start   = time.Now()
		stopped = start.Add(d)
	)
	for i := range boards {
		// A client takes at most one handed-over op per request it makes,
		// and other clients hand over one per join they draw (2 in 100
		// ops), so a board rarely holds more than one; a full board drops
		// the hand-over rather than block the client that drew the join.
		boards[i] = make(chan serveOp, 8)
	}
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Now().Before(stopped) {
				var op serveOp
				select {
				case op = <-boards[c]:
				default:
					var err error
					if op, err = env.mix.op(int(next.Add(1) - 1)); err != nil {
						mu.Lock()
						genErr = err
						mu.Unlock()
						return
					}
					if op.kind == opJoin {
						for o := range boards {
							if o != c {
								select {
								case boards[o] <- op:
								default:
								}
							}
						}
					}
				}
				t0 := time.Now()
				code, cache, body, err := env.post(op)
				lat := time.Since(t0)
				s := sample{index: op.index, kind: op.kind, cache: cacheStatus(cache), latency: lat, done: time.Since(start)}
				if err == nil {
					s.frames, err = chk.check(op, code, cache, body)
				}
				mu.Lock()
				if err != nil {
					r.fail("%v", err)
				} else {
					r.ok()
				}
				pass.samples = append(pass.samples, s)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	pass.wall = time.Since(start)
	sort.Slice(pass.samples, func(i, j int) bool { return pass.samples[i].done < pass.samples[j].done })
	return pass, genErr
}

func setupServe(cfg runConfig) (*serveEnv, *serveChecker, error) {
	m, err := newServeMix(cfg.seed)
	if err != nil {
		return nil, nil, err
	}
	env, err := startServe(m, cfg.workers)
	if err != nil {
		return nil, nil, err
	}
	chk := &serveChecker{env: env, first: map[int][]byte{}, bounds: map[int]float64{}}
	if cfg.seed == defaultSeed {
		if chk.expected, err = goldenMap("serve-mix.tsv"); err != nil {
			env.close()
			return nil, nil, err
		}
	}
	return env, chk, nil
}

// checkWarm checks every response of the warm-up once, before any request
// is measured against it: against the committed row (default seed) and the
// invariants. Each warmed spec or campaign is one operation of the report.
func (c *serveChecker) checkWarm(r *report) {
	committed := func(key, got string) error {
		if c.expected == nil {
			return nil
		}
		if want, ok := c.expected[key]; !ok {
			return fmt.Errorf("no committed result for %s", key)
		} else if got != want {
			return fmt.Errorf("%s: result %q, committed %q", key, got, want)
		}
		return nil
	}
	c.hotFrames = make([]int64, len(c.env.mix.hot))
	for i, op := range c.env.mix.hot {
		var res sim.Result
		err := json.Unmarshal(c.env.hotRef[i], &res)
		if err == nil {
			err = committed(fmt.Sprintf("hot/%d", i), summary(res)+"\t"+digest(c.env.hotRef[i]))
		}
		if err == nil {
			err = checkInvariants(op.spec, res, c.bound)
		}
		if err != nil {
			r.fail("hot spec %d: %v", i, err)
			continue
		}
		c.hotFrames[i] = res.Frames
		r.ok()
	}
	for i := range c.env.mix.campaigns {
		var cs serve.CampaignSummary
		err := json.Unmarshal(c.env.campRef[i], &cs)
		if err == nil {
			err = committed(fmt.Sprintf("hotcamp/%d", i), campaignSummary(cs))
		}
		if err == nil {
			err = checkCampaign(cs)
		}
		if err != nil {
			r.fail("hot campaign %d: %v", i, err)
			continue
		}
		r.ok()
	}
}

// checkCampaign is the seed-independent check of a campaign summary.
func checkCampaign(cs serve.CampaignSummary) error {
	if cs.Replications != campaignReps || len(cs.Metrics) == 0 || cs.Metrics[0].Count != campaignReps {
		return fmt.Errorf("campaign summary covers the wrong replicate count")
	}
	return nil
}

type serveSetup struct {
	env *serveEnv
	chk *serveChecker
}

func runServeMix(cfg runConfig, r *report) error {
	if cfg.trace {
		return traceServeMix(cfg, r)
	}
	setupFn := func() (serveSetup, error) {
		env, chk, err := setupServe(cfg)
		return serveSetup{env, chk}, err
	}
	s, first, err := timeSetup(setupFn)
	if err != nil {
		return err
	}
	defer s.env.close()
	s.chk.checkWarm(r)
	pass, err := runServePass(s.env, s.chk, cfg.workers, cfg.seconds, r)
	if err != nil {
		return err
	}
	var (
		lat, miss []float64
		frames    int64
	)
	for _, smp := range pass.samples {
		lat = append(lat, ms(smp.latency))
		if smp.cache == "miss" && (smp.kind == opFresh || smp.kind == opJoin) {
			miss = append(miss, ms(smp.latency))
		}
		frames += smp.frames
	}
	if len(miss) == 0 {
		return fmt.Errorf("no new spec missed the cache")
	}
	r.set("rss_peak_mb", peakRSSMiB(), unitMB)
	setup, err := setupMedian(first, serveSetupReps, setupFn, func(s serveSetup) { s.env.close() })
	if err != nil {
		return err
	}
	r.set("setup_s", setup, unitS)
	// wall_s is the mean time of blockRequests completions over the whole
	// pass. A median over consecutive blocks is the noisier estimate: a
	// block spans about a second, the scale on which a shared host's speed
	// wanders.
	r.set("wall_s", pass.wall.Seconds()*blockRequests/float64(len(pass.samples)), unitS)
	r.set("frames_per_s", float64(frames)/pass.wall.Seconds(), unitRate)
	r.set("req_per_s", float64(len(pass.samples))/pass.wall.Seconds(), unitRate)
	r.set("req_p50_ms", median(lat), unitMS)
	r.set("req_p99_ms", quantile(lat, 0.99), unitMS)
	r.set("miss_p50_ms", median(miss), unitMS)
	r.note("serve-mix: %d requests in %.3fs from %d closed-loop clients, %d new-spec misses, last op index %d",
		len(pass.samples), pass.wall.Seconds(), pass.clients, len(miss), lastIndex(pass))
	p99Note(r, "requests", len(lat))
	return nil
}

func lastIndex(p servePass) int {
	last := 0
	for _, s := range p.samples {
		last = max(last, s.index)
	}
	return last
}

// promScrape reads the unlabelled samples of a Prometheus text exposition.
func promScrape(b []byte) map[string]float64 {
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") || strings.Contains(line, "{") {
			continue
		}
		if f := strings.Fields(line); len(f) == 2 {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out
}

// scrape reads /stats and /metrics.
func (e *serveEnv) scrape() (serve.Stats, map[string]float64, error) {
	var st serve.Stats
	b, err := e.get("/stats")
	if err != nil {
		return st, nil, err
	}
	if err := json.Unmarshal(b, &st); err != nil {
		return st, nil, err
	}
	b, err = e.get("/metrics")
	if err != nil {
		return st, nil, err
	}
	return st, promScrape(b), nil
}

// traceServeMix runs the mix twice on fresh servers, untraced and then
// traced: the traced pass reads /stats and /metrics around the window and
// splits the client-side latencies by how the server answered.
func traceServeMix(cfg runConfig, r *report) error {
	half := cfg.seconds / 2
	env, chk, err := setupServe(cfg)
	if err != nil {
		return err
	}
	chk.checkWarm(r)
	plain, err := runServePass(env, chk, cfg.workers, half, r)
	env.close()
	if err != nil {
		return err
	}

	env, chk, err = setupServe(cfg)
	if err != nil {
		return err
	}
	defer env.close()
	chk.checkWarm(r)
	st0, m0, err := env.scrape()
	if err != nil {
		return err
	}
	pass, err := runServePass(env, chk, cfg.workers, half, r)
	if err != nil {
		return err
	}
	st1, m1, err := env.scrape()
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return m1[name] - m0[name] }

	byCache := map[string][]float64{}
	var (
		replicates          int
		hitJoinS, campaignS float64
		simMissS            float64
		bodies              [][]byte
		seen                = map[string]bool{}
		materialize         time.Duration
	)
	for _, s := range pass.samples {
		op, err := env.mix.op(s.index)
		if err != nil {
			return err
		}
		byCache[s.cache] = append(byCache[s.cache], ms(s.latency))
		switch {
		case op.path == "/campaign":
			campaignS += s.latency.Seconds()
			if s.cache == "miss" {
				replicates += op.camp.Replications
			}
		case s.cache == "hit" || s.cache == "join":
			hitJoinS += s.latency.Seconds()
		default:
			simMissS += s.latency.Seconds()
		}
		if op.path == "/simulate" && !seen[string(op.body)] && len(bodies) < 2000 {
			seen[string(op.body)] = true
			bodies = append(bodies, op.body)
			if s.cache == "miss" {
				// The server already materialised this spec without error;
				// this repeats the work only to time it.
				t0 := time.Now()
				if st, err := op.spec.Strategy(); err == nil {
					st.Config()
				}
				materialize += time.Since(t0)
			}
		}
	}
	r.set("serve.hit_n", float64(len(byCache["hit"])), unitCount)
	r.set("serve.miss_n", float64(len(byCache["miss"])), unitCount)
	r.set("serve.join_n", float64(len(byCache["join"])), unitCount)
	r.set("serve.hit_p50_ms", median(byCache["hit"]), unitMS)
	r.set("serve.miss_p50_ms", median(byCache["miss"]), unitMS)
	r.set("serve.join_p50_ms", median(byCache["join"]), unitMS)
	queueWait := delta("runner_queue_wait_seconds_sum")
	r.set("serve.queue_wait_s", queueWait, unitS)
	c0, c1 := st0.Cache, st1.Cache
	hits, misses := float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
	r.set("store.hit_ratio", hits/math.Max(1, hits+misses), unitRatio)
	r.set("store.puts", float64(c1.Puts-c0.Puts), unitCount)
	r.set("store.evictions", float64(c1.Evictions-c0.Evictions), unitCount)
	r.set("store.bytes", float64(c1.Bytes), unitBytes)
	r.set("campaign.replicates", float64(replicates), unitCount)

	var ps phaseSums
	for p := 0; p < sim.PhaseCount; p++ {
		name := "engine_phase_" + strings.ReplaceAll(sim.Phase(p).String(), "-", "_") + "_seconds"
		ps.ns[p] = int64(delta(name+"_sum") * 1e9)
		ps.n[p] = int(delta(name + "_count"))
	}
	ps.frames = int64(delta("engine_frames_total"))
	setPhases(r, ps, 1)
	r.set("core.materialize_s", materialize.Seconds(), unitS)
	us, err := fingerprintUS(bodies)
	if err != nil {
		return err
	}
	r.set("scenario.fingerprint_us", us, unitUS)

	perReq := func(p servePass) float64 { return p.wall.Seconds() / float64(len(p.samples)) }
	r.set("trace.overhead", perReq(pass)/perReq(plain), unitRatio)
	covered := hitJoinS + campaignS + float64(ps.total())/1e9 + queueWait
	r.set("trace.coverage", covered/(float64(pass.clients)*pass.wall.Seconds()), unitRatio)
	r.set("trace.rerun_share", simMissS/math.Max(1e-9, simMissS+campaignS), unitRatio)
	zeroLayers(r, "routing.weights_s", "routing.paths_s", "routing.repair_s", "routing.tables_s",
		"routing.replay_n", "routing.replay_ratio", "runner.cells", "runner.busy_s", "runner.utilization",
		"runner.cell_p50_ms", "runner.cell_max_ms")
	r.note("serve-mix trace: untraced %d requests in %.3fs, traced %d in %.3fs; store %d hits %d misses %d evictions",
		len(plain.samples), plain.wall.Seconds(), len(pass.samples), pass.wall.Seconds(),
		c1.Hits-c0.Hits, c1.Misses-c0.Misses, c1.Evictions-c0.Evictions)
	return nil
}
