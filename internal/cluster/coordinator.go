package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/service"
)

// Defaults for Options zero values.
const (
	DefaultHeartbeatInterval = time.Second
	DefaultVNodes            = 64
	DefaultCallTimeout       = 30 * time.Second
)

// Options sizes a Coordinator. The zero value is usable: 1s heartbeats,
// suspect after 3 missed beats, down after 8, 64 virtual nodes per
// worker, and retrying internal calls.
type Options struct {
	// HeartbeatInterval is the cadence workers are told to beat at.
	HeartbeatInterval time.Duration
	// SuspectAfter and DownAfter are the silence thresholds for the two
	// degraded health states. Zero selects 3× and 8× the heartbeat
	// interval respectively.
	SuspectAfter time.Duration
	DownAfter    time.Duration
	// VNodes is the virtual-node count per worker on the placement ring.
	VNodes int
	// Retry shapes coordinator→worker internal calls; the zero value
	// selects client.DefaultRetry (retry IS on for internal calls — a
	// worker restarting between heartbeats is routine, not fatal).
	Retry client.RetryPolicy
	// CallTimeout bounds each non-streaming internal call attempt.
	CallTimeout time.Duration
	// Seed drives dataset- and job-id generation.
	Seed int64
	// Logger receives structured lifecycle logs; nil discards them.
	Logger *slog.Logger
}

// placement records where a dataset's records live: one stripe on one
// worker for ordinary datasets, k stripes on up to k workers for striped
// ones. stripes[j] holds logical stripe j — records [j·N/k, (j+1)·N/k) of
// the client's address space.
type placement struct {
	id      string
	cfg     bmmc.Config
	backend string
	striped bool
	scfg    bmmc.Config // per-stripe geometry (== cfg when not striped)
	stripes []stripeLoc
	jobsRun int
	created time.Time

	// The striped-job turnstile (see bind). nowServing is the ticket
	// allowed to execute; retired holds tickets retired ahead of their
	// turn; turn is closed and replaced whenever the turnstile moves.
	nextTicket int
	nowServing int
	retired    map[int]bool
	turn       chan struct{}
}

type stripeLoc struct {
	worker string // worker id
	dsID   string // dataset id on that worker
}

// jobRoute remembers which worker executes a proxied job.
type jobRoute struct {
	worker    string
	dataset   string // placement id, "" for per-job storage
	submitted time.Time
}

// Coordinator is the cluster's control plane: the worker registry, the
// placement ring and table, the striped-job orchestrator, and the proxy
// that makes the fleet answer the single-daemon HTTP surface.
type Coordinator struct {
	o   Options
	log *slog.Logger
	reg *registry
	hc  *http.Client // shared transport for every worker call
	eng *bmmc.Engine // plans striped jobs and quotes their summaries
	obs *coordObs    // coordinator Prometheus registry + scrape fan-out

	quit chan struct{}
	wg   sync.WaitGroup

	mu         sync.Mutex
	ring       *ring
	placements map[string]*placement
	dsOrder    []string
	routes     map[string]*jobRoute
	sjobs      map[string]*stripedJob
	seq        int
	rng        *rand.Rand
	closed     bool
}

// New builds a coordinator and starts its failure-detection sweep.
func New(o Options) *Coordinator {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.SuspectAfter <= 0 {
		o.SuspectAfter = 3 * o.HeartbeatInterval
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 8 * o.HeartbeatInterval
	}
	if o.VNodes <= 0 {
		o.VNodes = DefaultVNodes
	}
	if o.Retry.Attempts == 0 {
		o.Retry = client.DefaultRetry()
	}
	if o.CallTimeout <= 0 {
		o.CallTimeout = DefaultCallTimeout
	}
	log := o.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	c := &Coordinator{
		o:          o,
		log:        log,
		reg:        newRegistry(o.SuspectAfter, o.DownAfter),
		hc:         &http.Client{},
		eng:        bmmc.NewEngine(),
		quit:       make(chan struct{}),
		ring:       newRing(o.VNodes),
		placements: make(map[string]*placement),
		routes:     make(map[string]*jobRoute),
		sjobs:      make(map[string]*stripedJob),
		rng:        rand.New(rand.NewSource(o.Seed)),
	}
	c.obs = newCoordObs(c)
	c.wg.Add(1)
	go c.sweep()
	return c
}

// Shutdown stops the failure detector and cancels striped jobs in flight.
// Workers keep their data; a fresh coordinator re-discovers them as they
// re-join.
func (c *Coordinator) Shutdown() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		c.wg.Wait()
		return
	}
	c.closed = true
	jobs := make([]*stripedJob, 0, len(c.sjobs))
	for _, sj := range c.sjobs {
		jobs = append(jobs, sj)
	}
	c.mu.Unlock()
	close(c.quit)
	for _, sj := range jobs {
		sj.cancel()
	}
	c.wg.Wait()
	c.hc.CloseIdleConnections()
}

// workerClient returns a retrying client for one worker's base URL.
func (c *Coordinator) workerClient(addr string) *client.Client {
	return client.New(addr,
		client.WithHTTPClient(c.hc),
		client.WithRetry(c.o.Retry),
		client.WithTimeout(c.o.CallTimeout))
}

// clientFor resolves a worker id to a client, failing when the worker has
// left the registry.
func (c *Coordinator) clientFor(workerID string) (*client.Client, error) {
	addr, ok := c.reg.addrOf(workerID)
	if !ok {
		return nil, apiErr(http.StatusBadGateway, fmt.Sprintf("worker %s is no longer part of the cluster", workerID))
	}
	return c.workerClient(addr), nil
}

// sweep is the failure detector: every heartbeat interval it evicts
// workers past the down deadline and drops the placements that died with
// them.
func (c *Coordinator) sweep() {
	defer c.wg.Done()
	t := time.NewTicker(c.o.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-c.quit:
			return
		case <-t.C:
			for _, w := range c.reg.expired() {
				c.log.Warn("worker down; evicting", "worker", w.ID, "addr", w.Addr)
				c.evict(w.ID)
			}
		}
	}
}

// evict removes a dead worker and every placement that lost a stripe with
// it. Unreplicated data on a dead node is gone; dropping the placement
// makes that loss crisp — the id turns 404 and may be re-created — rather
// than leaving a handle that can never serve bytes again.
func (c *Coordinator) evict(workerID string) {
	c.reg.remove(workerID)
	c.mu.Lock()
	c.ring.remove(workerID)
	var lost []*placement
	for _, p := range c.placements {
		for _, s := range p.stripes {
			if s.worker == workerID {
				lost = append(lost, p)
				break
			}
		}
	}
	for _, p := range lost {
		delete(c.placements, p.id)
		c.dsOrder = removeString(c.dsOrder, p.id)
	}
	c.mu.Unlock()
	for _, p := range lost {
		c.log.Warn("dataset lost with downed worker", "dataset", p.id, "worker", workerID)
		// Best-effort: reclaim surviving stripes of striped datasets.
		for _, s := range p.stripes {
			if s.worker == workerID {
				continue
			}
			if wc, err := c.clientFor(s.worker); err == nil {
				// Best-effort cleanup outlives the failed request that triggered it.
				//lint:allow ctxio -- cleanup RPC deliberately detached from the dead request; bounded by CallTimeout
				ctx, cancel := context.WithTimeout(context.Background(), c.o.CallTimeout)
				wc.DeleteDataset(ctx, s.dsID)
				cancel()
			}
		}
	}
}

// Join registers a worker. New workers trigger adoption (any datasets the
// worker already holds re-enter the placement table — how a restarted
// coordinator re-discovers the cluster's data) and then a rebalance pass
// that moves datasets whose ring owner changed.
func (c *Coordinator) Join(id, addr string) error {
	if id == "" || addr == "" {
		return apiErr(http.StatusBadRequest, "join needs a worker id and an advertise URL")
	}
	addr = strings.TrimRight(addr, "/")
	// Registry and ring change in one critical section: a dataset placed
	// once the worker shows up in the registry already hashes onto it,
	// rather than landing on the old ring and being moved by the
	// rebalance below.
	c.mu.Lock()
	isNew := c.reg.upsert(id, addr)
	c.ring.add(id) // no-op when already present
	c.mu.Unlock()
	if isNew {
		c.log.Info("worker joined", "worker", id, "addr", addr)
		c.adopt(id, addr)
		c.rebalance()
	}
	return nil
}

// Leave drains a worker gracefully: every stripe it holds is handed off
// to the ring's next owner before the call returns, so the worker may
// shut its listener down the moment Leave answers.
func (c *Coordinator) Leave(id string) error {
	if _, ok := c.reg.drain(id); !ok {
		return apiErr(http.StatusNotFound, fmt.Sprintf("unknown worker %q", id))
	}
	c.log.Info("worker leaving; draining placements", "worker", id)
	c.mu.Lock()
	c.ring.remove(id)
	c.mu.Unlock()
	c.rebalance()
	// Anything still on the worker after the rebalance pass could not be
	// moved (no surviving workers, or handoff failures): drop it, the
	// worker is going away regardless.
	c.mu.Lock()
	var stranded []*placement
	for _, p := range c.placements {
		for _, s := range p.stripes {
			if s.worker == id {
				stranded = append(stranded, p)
				break
			}
		}
	}
	for _, p := range stranded {
		delete(c.placements, p.id)
		c.dsOrder = removeString(c.dsOrder, p.id)
	}
	c.mu.Unlock()
	for _, p := range stranded {
		c.log.Warn("dataset stranded on leaving worker; dropping", "dataset", p.id, "worker", id)
	}
	c.reg.remove(id)
	return nil
}

// adopt pulls a joining worker's existing datasets into the placement
// table — the coordinator-restart recovery path. Stripe datasets (ids of
// the form "<base>-s<j>of<k>") are grouped back into their striped
// placement; whole datasets adopt directly. Ids already placed elsewhere
// are left alone: the established placement wins and the stale copy is
// deleted from the joiner.
func (c *Coordinator) adopt(workerID, addr string) {
	// Adoption is driven by the worker heartbeat, not an inbound request:
	// there is no caller context to inherit.
	//lint:allow ctxio -- heartbeat-driven, no caller ctx exists; bounded by CallTimeout
	ctx, cancel := context.WithTimeout(context.Background(), c.o.CallTimeout)
	defer cancel()
	dss, err := c.workerClient(addr).Datasets(ctx)
	if err != nil {
		c.log.Warn("adopting datasets from joining worker", "worker", workerID, "err", err)
		return
	}
	var stale []string
	c.mu.Lock()
	for _, ds := range dss {
		if ds.Released {
			continue
		}
		base, j, k, striped := parseStripeID(ds.ID)
		if !striped {
			if _, exists := c.placements[ds.ID]; exists {
				stale = append(stale, ds.ID)
				continue
			}
			c.placements[ds.ID] = &placement{
				id: ds.ID, cfg: ds.Config, backend: ds.Backend, scfg: ds.Config,
				stripes: []stripeLoc{{worker: workerID, dsID: ds.ID}},
				created: ds.Created,
			}
			c.dsOrder = append(c.dsOrder, ds.ID)
			continue
		}
		p := c.placements[base]
		if p == nil {
			full := ds.Config
			full.N *= k
			p = &placement{
				id: base, cfg: full, backend: ds.Backend, striped: true, scfg: ds.Config,
				stripes: make([]stripeLoc, k), created: ds.Created,
			}
			c.placements[base] = p
			c.dsOrder = append(c.dsOrder, base)
		}
		if !p.striped || j >= len(p.stripes) || p.stripes[j].worker != "" {
			stale = append(stale, ds.ID)
			continue
		}
		p.stripes[j] = stripeLoc{worker: workerID, dsID: ds.ID}
	}
	// Striped placements with stripes still missing stay in the table —
	// placementOf answers 503 for them until the holders re-join, which
	// is the honest state: the data exists, its node just isn't back yet.
	c.mu.Unlock()
	for _, id := range stale {
		c.log.Warn("joining worker holds a stale dataset copy; deleting", "worker", workerID, "dataset", id)
		//lint:allow ctxio -- heartbeat-driven stale-copy cleanup, no caller ctx exists; bounded by CallTimeout
		dctx, dcancel := context.WithTimeout(context.Background(), c.o.CallTimeout)
		c.workerClient(addr).DeleteDataset(dctx, id)
		dcancel()
	}
	if len(dss) > 0 {
		c.log.Info("adopted datasets from worker", "worker", workerID, "count", len(dss))
	}
}

// parseStripeID splits "<base>-s<j>of<k>" stripe dataset names.
func parseStripeID(id string) (base string, j, k int, ok bool) {
	i := strings.LastIndex(id, "-s")
	if i < 0 {
		return "", 0, 0, false
	}
	var jj, kk int
	if n, err := fmt.Sscanf(id[i:], "-s%dof%d", &jj, &kk); n != 2 || err != nil {
		return "", 0, 0, false
	}
	if jj < 0 || kk < 2 || jj >= kk {
		return "", 0, 0, false
	}
	return id[:i], jj, kk, true
}

func stripeID(base string, j, k int) string { return fmt.Sprintf("%s-s%dof%d", base, j, k) }

// rebalance walks every placement and moves stripes whose ring owner is
// no longer the holder: a handoff replays the records worker-to-worker
// and deletes the source copy atomically with the transfer. Failures
// leave the old placement intact — a stale-but-correct placement beats a
// dangling one.
func (c *Coordinator) rebalance() {
	type move struct {
		p        *placement
		idx      int
		from, to string
	}
	var moves []move
	c.mu.Lock()
	for _, p := range c.placements {
		for i, s := range p.stripes {
			want := c.ring.owner(s.dsID)
			if want != "" && want != s.worker {
				moves = append(moves, move{p: p, idx: i, from: s.worker, to: want})
			}
		}
	}
	c.mu.Unlock()
	for _, mv := range moves {
		src, err := c.clientFor(mv.from)
		if err != nil {
			continue
		}
		dst, ok := c.reg.addrOf(mv.to)
		if !ok {
			continue
		}
		dsID := mv.p.stripes[mv.idx].dsID
		//lint:allow ctxio -- rebalance runs on the coordinator maintenance loop, not a request; bounded by 10x CallTimeout
		ctx, cancel := context.WithTimeout(context.Background(), 10*c.o.CallTimeout)
		_, err = src.HandoffDataset(ctx, dsID, client.HandoffRequest{Target: dst, Delete: true})
		cancel()
		if err != nil {
			c.log.Warn("rebalance handoff failed; placement unchanged",
				"dataset", dsID, "from", mv.from, "to", mv.to, "err", err)
			continue
		}
		c.mu.Lock()
		mv.p.stripes[mv.idx].worker = mv.to
		c.mu.Unlock()
		c.log.Info("dataset rebalanced", "dataset", dsID, "from", mv.from, "to", mv.to)
	}
}

// placementOf resolves a dataset id, insisting every stripe has a live
// worker.
func (c *Coordinator) placementOf(id string) (*placement, error) {
	c.mu.Lock()
	p, ok := c.placements[id]
	c.mu.Unlock()
	if !ok {
		return nil, apiErr(http.StatusNotFound, fmt.Sprintf("unknown dataset %q", id))
	}
	for _, s := range p.stripes {
		if s.worker == "" {
			return nil, apiErr(http.StatusServiceUnavailable,
				fmt.Sprintf("dataset %s stripe %s has not been re-discovered yet", id, s.dsID))
		}
	}
	return p, nil
}

// nextID mints a coordinator-scoped id with the given prefix.
func (c *Coordinator) nextID(prefix string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	return fmt.Sprintf("%s%04d-%06x", prefix, c.seq, c.rng.Uint32()&0xffffff)
}

// Workers snapshots the registry with per-worker placement counts.
func (c *Coordinator) Workers() []WorkerInfo {
	ws := c.reg.snapshot()
	counts := map[string]int{}
	c.mu.Lock()
	for _, p := range c.placements {
		for _, s := range p.stripes {
			counts[s.worker]++
		}
	}
	c.mu.Unlock()
	for i := range ws {
		ws[i].Datasets = counts[ws[i].ID]
	}
	return ws
}

// datasetStatuses lists every placement in creation order as synthesized
// DatasetStatus values (striped datasets do not exist whole on any one
// worker, so the coordinator is the only place their status can come
// from).
func (c *Coordinator) datasetStatuses(ctx context.Context) []*service.DatasetStatus {
	c.mu.Lock()
	ids := append([]string(nil), c.dsOrder...)
	c.mu.Unlock()
	out := make([]*service.DatasetStatus, 0, len(ids))
	for _, id := range ids {
		if st, err := c.datasetStatus(ctx, id); err == nil {
			out = append(out, st)
		}
	}
	return out
}

// datasetStatus synthesizes one dataset's status from its stripes.
func (c *Coordinator) datasetStatus(ctx context.Context, id string) (*service.DatasetStatus, error) {
	p, err := c.placementOf(id)
	if err != nil {
		return nil, err
	}
	st := &service.DatasetStatus{ID: p.id, Config: p.cfg, Backend: p.backend, InputLoaded: true, Created: p.created}
	c.mu.Lock()
	st.JobsRun = p.jobsRun
	stripes := append([]stripeLoc(nil), p.stripes...)
	c.mu.Unlock()
	for _, s := range stripes {
		wc, err := c.clientFor(s.worker)
		if err != nil {
			return nil, err
		}
		ss, err := wc.Dataset(ctx, s.dsID)
		if err != nil {
			return nil, asGatewayErr(err)
		}
		st.InputLoaded = st.InputLoaded && ss.InputLoaded
		st.ActiveJobs += ss.ActiveJobs
		if !p.striped {
			st.JobsRun = ss.JobsRun
			st.Created = ss.Created
		}
	}
	return st, nil
}

func removeString(s []string, v string) []string {
	out := s[:0]
	for _, x := range s {
		if x != v {
			out = append(out, x)
		}
	}
	return out
}

func sortStatusesBySubmitted(sts []*service.JobStatus) {
	sort.Slice(sts, func(i, j int) bool { return sts[i].Submitted.Before(sts[j].Submitted) })
}
