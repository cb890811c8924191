package cluster

import (
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/service"
)

// DefaultHeartbeatInterval is the heartbeat cadence when Options leaves it
// zero.
const DefaultHeartbeatInterval = time.Second

// Fixed coordinator timings. A worker is suspect after suspectBeats missed
// heartbeats, and each non-streaming internal call attempt is bounded by
// callTimeout; internal calls retry by client.DefaultRetry, since a worker
// restarting between heartbeats is routine, not fatal.
const (
	suspectBeats = 3
	callTimeout  = 30 * time.Second
)

// Options sizes a Coordinator. The zero value is usable: 1s heartbeats,
// suspect after 3 missed beats and down after 8.
type Options struct {
	// HeartbeatInterval is the cadence workers are told to beat at.
	HeartbeatInterval time.Duration
	// DownAfter is the silence after which a worker is evicted. Zero
	// selects 8× the heartbeat interval.
	DownAfter time.Duration
	// Seed drives dataset- and job-id generation.
	Seed int64
	// Logger receives structured lifecycle logs; nil discards them.
	Logger *slog.Logger
}

// placement records where a dataset's records live: one stripe on one
// worker for ordinary datasets, k stripes on up to k workers for striped
// ones. stripes[j] holds logical stripe j — records [j·N/k, (j+1)·N/k) of
// the client's address space; rebalance and the striped relabel rewrite
// it under Coordinator.mu.
type placement struct {
	id      string
	cfg     bmmc.Config
	scfg    bmmc.Config // per-stripe geometry (== cfg when not striped)
	stripes []stripeLoc
	// gate admits a striped dataset's jobs and streams, as bmmcd's entry
	// does; nil for an unstriped dataset, which its worker's entry gates.
	gate *service.Gate
}

type stripeLoc struct {
	worker string // worker id
	dsID   string // dataset id on that worker
}

// names reports whether p places its copy dsID on worker.
func (p *placement) names(worker, dsID string) bool {
	for _, s := range p.stripes {
		if s.worker == worker && s.dsID == dsID {
			return true
		}
	}
	return false
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
	routes     map[string]string // proxied job id -> the worker running it
	sjobs      map[string]*stripedJob
	moving     map[string]bool // stripe dataset ids a rebalance is handing off
	seq        int
	rng        *rand.Rand
	closed     bool
}

// New builds a coordinator and starts its failure-detection sweep.
func New(o Options) *Coordinator {
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if o.DownAfter <= 0 {
		o.DownAfter = 8 * o.HeartbeatInterval
	}
	log := o.Logger
	if log == nil {
		log = slog.New(slog.DiscardHandler)
	}
	c := &Coordinator{
		o:          o,
		log:        log,
		reg:        newRegistry(suspectBeats*o.HeartbeatInterval, o.DownAfter),
		hc:         &http.Client{},
		eng:        bmmc.NewEngine(),
		quit:       make(chan struct{}),
		ring:       &ring{},
		placements: make(map[string]*placement),
		routes:     make(map[string]string),
		sjobs:      make(map[string]*stripedJob),
		moving:     make(map[string]bool),
		rng:        rand.New(rand.NewSource(o.Seed)),
	}
	c.obs = newCoordObs(c)
	c.wg.Add(1)
	go c.sweep()
	return c
}

// Shutdown stops the failure detector and cancels striped jobs in flight,
// returning once each has stopped and its worker sub-jobs have ended.
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
		sj.Cancel()
	}
	c.wg.Wait()
	c.hc.CloseIdleConnections()
}

// workerClient returns a retrying client for one worker's base URL.
func (c *Coordinator) workerClient(addr string) *client.Client {
	return client.New(addr,
		client.WithHTTPClient(c.hc),
		client.WithRetry(client.DefaultRetry()),
		client.WithTimeout(callTimeout))
}

// clientFor resolves a worker id to a client, failing when the worker has
// left the registry.
func (c *Coordinator) clientFor(workerID string) (*client.Client, error) {
	addr, ok := c.reg.addrOf(workerID)
	if !ok {
		return nil, service.Error(http.StatusBadGateway, fmt.Sprintf("worker %s is no longer part of the cluster", workerID))
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
	lost := c.dropPlacementsOn(workerID)
	c.mu.Unlock()
	for _, p := range lost {
		c.log.Warn("dataset lost with downed worker", "dataset", p.id, "worker", workerID)
		// Best-effort: reclaim surviving stripes of striped datasets.
		for _, s := range c.stripesOf(p) {
			if s.worker != workerID {
				c.dropCopy(s.worker, s.dsID)
			}
		}
	}
}

// dropPlacementsOn removes, and returns, every placement with a stripe on
// the worker. The caller holds c.mu.
func (c *Coordinator) dropPlacementsOn(workerID string) []*placement {
	var dropped []*placement
	for _, p := range c.placements {
		for _, s := range p.stripes {
			if s.worker == workerID {
				dropped = append(dropped, p)
				break
			}
		}
	}
	for _, p := range dropped {
		delete(c.placements, p.id)
		c.dsOrder = removeString(c.dsOrder, p.id)
	}
	return dropped
}

// dropCopy deletes a dataset copy from a worker, best effort: the cleanup
// outlives the request, heartbeat or eviction that started it.
func (c *Coordinator) dropCopy(workerID, dsID string) {
	if wc, err := c.clientFor(workerID); err == nil {
		//lint:allow ctxio -- best-effort cleanup detached from its trigger; bounded by callTimeout
		ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
		defer cancel()
		wc.DeleteDataset(ctx, dsID)
	}
}

// Join registers a worker. New workers trigger adoption (any datasets the
// worker already holds re-enter the placement table — how a restarted
// coordinator re-discovers the cluster's data) and then a rebalance pass
// that moves datasets whose ring owner changed.
func (c *Coordinator) Join(id, addr string) error {
	if id == "" || addr == "" {
		return service.Error(http.StatusBadRequest, "join needs a worker id and an advertise URL")
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
	if !c.reg.drain(id) {
		return service.Error(http.StatusNotFound, fmt.Sprintf("unknown worker %q", id))
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
	stranded := c.dropPlacementsOn(id)
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
// placement; whole datasets adopt directly. A copy the established
// placement already names on this worker — a stripe provisioned while the
// listing was in flight, or a re-join — is the live copy and stays. Ids
// placed on a different worker are left alone: the established placement
// wins and the stale copy is deleted from the joiner.
func (c *Coordinator) adopt(workerID, addr string) {
	// Adoption is driven by the worker heartbeat, not an inbound request:
	// there is no caller context to inherit.
	//lint:allow ctxio -- heartbeat-driven, no caller ctx exists; bounded by callTimeout
	ctx, cancel := context.WithTimeout(context.Background(), callTimeout)
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
			if p, exists := c.placements[ds.ID]; exists {
				if !p.names(workerID, ds.ID) {
					stale = append(stale, ds.ID)
				}
				continue
			}
			c.placements[ds.ID] = &placement{
				id: ds.ID, cfg: ds.Config, scfg: ds.Config,
				stripes: []stripeLoc{{worker: workerID, dsID: ds.ID}},
			}
			c.dsOrder = append(c.dsOrder, ds.ID)
			continue
		}
		p := c.placements[base]
		if p == nil {
			full := ds.Config
			full.N *= k
			p = &placement{id: base, cfg: full, scfg: ds.Config, stripes: make([]stripeLoc, k),
				gate: service.NewGate(service.DatasetStatus{
					ID: base, Config: full, Backend: ds.Backend, InputLoaded: ds.InputLoaded, Created: ds.Created,
				})}
			c.placements[base] = p
			c.dsOrder = append(c.dsOrder, base)
		}
		if p.names(workerID, ds.ID) {
			continue
		}
		if p.gate == nil || j >= len(p.stripes) || p.stripes[j].worker != "" {
			stale = append(stale, ds.ID)
			continue
		}
		p.stripes[j] = stripeLoc{worker: workerID, dsID: ds.ID}
		p.gate.AdoptPart(ds.InputLoaded)
	}
	// Striped placements with stripes still missing stay in the table —
	// placementOf answers 503 for them until the holders re-join, which
	// is the honest state: the data exists, its node just isn't back yet.
	c.mu.Unlock()
	for _, id := range stale {
		c.log.Warn("joining worker holds a stale dataset copy; deleting", "worker", workerID, "dataset", id)
		c.dropCopy(workerID, id)
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
// dangling one. A move names its stripe by dataset id, not by logical
// slot: a striped job may relabel the stripes while a handoff runs. The
// stripe is marked moving for the whole call, since the source drops its
// copy inside it: until the destination is recorded, requests the
// coordinator would route to the stripe answer 503 (see settled), as the
// source's handoff latch does.
func (c *Coordinator) rebalance() {
	type move struct {
		p              *placement
		dsID, from, to string
	}
	var moves []move
	c.mu.Lock()
	for _, p := range c.placements {
		for _, s := range p.stripes {
			if want := c.ring.owner(s.dsID); want != "" && want != s.worker {
				moves = append(moves, move{p: p, dsID: s.dsID, from: s.worker, to: want})
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
		c.mu.Lock()
		c.moving[mv.dsID] = true
		c.mu.Unlock()
		//lint:allow ctxio -- rebalance runs on the coordinator maintenance loop, not a request; bounded by 10x callTimeout
		ctx, cancel := context.WithTimeout(context.Background(), 10*callTimeout)
		_, err = src.HandoffDataset(ctx, mv.dsID, client.HandoffRequest{Target: dst, Delete: true})
		cancel()
		c.mu.Lock()
		delete(c.moving, mv.dsID)
		for i := range mv.p.stripes {
			if err == nil && mv.p.stripes[i].dsID == mv.dsID {
				mv.p.stripes[i].worker = mv.to
			}
		}
		c.mu.Unlock()
		if err != nil {
			c.log.Warn("rebalance handoff failed; placement unchanged",
				"dataset", mv.dsID, "from", mv.from, "to", mv.to, "err", err)
			continue
		}
		c.log.Info("dataset rebalanced", "dataset", mv.dsID, "from", mv.from, "to", mv.to)
	}
}

// placementOf resolves a dataset id, insisting every stripe has a live
// worker.
func (c *Coordinator) placementOf(id string) (*placement, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.placements[id]
	if !ok {
		return nil, service.Error(http.StatusNotFound, fmt.Sprintf("unknown dataset %q", id))
	}
	for _, s := range p.stripes {
		if s.worker == "" {
			return nil, service.Error(http.StatusServiceUnavailable,
				fmt.Sprintf("dataset %s stripe %s has not been re-discovered yet", id, s.dsID))
		}
	}
	return p, nil
}

// settled answers 503 while a rebalance hands one of p's stripes off.
func (c *Coordinator) settled(p *placement) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, s := range p.stripes {
		if c.moving[s.dsID] {
			return service.Error(http.StatusServiceUnavailable,
				fmt.Sprintf("dataset %s stripe %s is moving to another worker", p.id, s.dsID))
		}
	}
	return nil
}

// FindDataset resolves a dataset id to a striped placement the
// coordinator serves itself, or else to the base URL of the worker that
// holds the whole dataset. Both answer 503 while a stripe is moving.
func (c *Coordinator) FindDataset(id string) (service.LocalDataset, string, error) {
	p, err := c.placementOf(id)
	if err == nil {
		err = c.settled(p)
	}
	switch {
	case err != nil:
		return nil, "", err
	case p.gate != nil:
		return stripedSet{p.gate, c, p}, "", nil
	}
	worker := c.stripesOf(p)[0].worker
	addr, ok := c.reg.addrOf(worker)
	if !ok {
		return nil, "", service.Error(http.StatusBadGateway, fmt.Sprintf("worker %s is no longer part of the cluster", worker))
	}
	return nil, addr, nil
}

// stripesOf snapshots p's stripes.
func (c *Coordinator) stripesOf(p *placement) []stripeLoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]stripeLoc(nil), p.stripes...)
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

// ListDatasets lists every placement's status in creation order
// (striped datasets do not exist whole on any one worker, so the
// coordinator is the only place their status can come from).
func (c *Coordinator) ListDatasets(ctx context.Context) []*service.DatasetStatus {
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

// datasetStatus reports one dataset: a striped dataset's status comes from
// its gate, an unstriped one's from its worker, verbatim.
func (c *Coordinator) datasetStatus(ctx context.Context, id string) (*service.DatasetStatus, error) {
	p, err := c.placementOf(id)
	if err != nil {
		return nil, err
	}
	if p.gate != nil {
		return p.gate.Status(), nil
	}
	s := c.stripesOf(p)[0]
	wc, err := c.clientFor(s.worker)
	if err != nil {
		return nil, err
	}
	st, err := wc.Dataset(ctx, s.dsID)
	return st, asGatewayErr(err)
}

func removeString(s []string, v string) []string {
	return slices.DeleteFunc(s, func(x string) bool { return x == v })
}
