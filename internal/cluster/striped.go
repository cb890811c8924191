package cluster

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"sync"
	"time"

	bmmc "repro"
	"repro/client"
	"repro/internal/obs"
	"repro/internal/service"
)

// stripedJob is a job the coordinator executes itself: a permutation of a
// striped dataset, decomposed into per-node sub-jobs plus an exchange
// phase. It mirrors the daemon's job surface — status, SSE events,
// cancel — so clients cannot tell it from a proxied job.
type stripedJob struct {
	id        string
	dataset   string
	summary   *service.PlanSummary
	submitted time.Time
	ctx       context.Context
	cancelFn  context.CancelFunc
	trace     *obs.TraceBuffer // coordinator-side spans (stripe/gather/route/scatter)

	mu       sync.Mutex
	state    service.State
	errMsg   string
	report   *service.RunReport
	started  *time.Time
	finished *time.Time
	refs     []subJobRef // worker sub-jobs spawned, for trace stitching
	subs     map[chan service.Event]struct{}
}

func newStripedJob(id, dataset string, summary *service.PlanSummary) *stripedJob {
	// The job outlives the submitting request; its root is canceled by
	// Cancel/Close, not by the submitter hanging up.
	//lint:allow ctxio -- job-lifetime root; canceled via the job's own cancelFn
	ctx, cancel := context.WithCancel(context.Background())
	return &stripedJob{
		id: id, dataset: dataset, summary: summary, submitted: time.Now(),
		ctx: ctx, cancelFn: cancel,
		trace: obs.NewTraceBuffer(id, 0),
		state: service.StateQueued,
		subs:  make(map[chan service.Event]struct{}),
	}
}

func (sj *stripedJob) cancel() { sj.cancelFn() }

// setState publishes a transition to every subscriber. Terminal states
// stick: a cancellation racing completion keeps whichever landed first.
func (sj *stripedJob) setState(s service.State, errMsg string) {
	sj.mu.Lock()
	if sj.state.Terminal() {
		sj.mu.Unlock()
		return
	}
	sj.state = s
	sj.errMsg = errMsg
	now := time.Now()
	switch {
	case s == service.StateRunning && sj.started == nil:
		sj.started = &now
	case s.Terminal():
		if sj.started == nil {
			sj.started = &now
		}
		sj.finished = &now
	}
	ev := service.Event{Type: service.EventState, JobID: sj.id, State: s, Error: errMsg}
	for ch := range sj.subs {
		select {
		case ch <- ev:
		default: // slow consumer: it re-reads status at stream end
		}
	}
	sj.mu.Unlock()
}

func (sj *stripedJob) subscribe() (chan service.Event, func()) {
	ch := make(chan service.Event, 16)
	sj.mu.Lock()
	sj.subs[ch] = struct{}{}
	sj.mu.Unlock()
	return ch, func() {
		sj.mu.Lock()
		delete(sj.subs, ch)
		sj.mu.Unlock()
	}
}

func (sj *stripedJob) status() *service.JobStatus {
	sj.mu.Lock()
	defer sj.mu.Unlock()
	return &service.JobStatus{
		ID:          sj.id,
		State:       sj.state,
		Error:       sj.errMsg,
		Dataset:     sj.dataset,
		Plan:        sj.summary,
		InputLoaded: true,
		Report:      sj.report,
		Submitted:   sj.submitted,
		Started:     sj.started,
		Finished:    sj.finished,
	}
}

// submitStriped starts a coordinator-run job over a striped dataset and
// returns its initial status. The pass decomposes into per-node sub-jobs
// plus a block exchange when the permutation's A_hl block is zero;
// otherwise the coordinator routes every record itself (the general
// path, O(N) coordinator memory).
func (c *Coordinator) submitStriped(req service.SubmitRequest, p *placement) (*service.JobStatus, error) {
	perm, err := bmmc.ParsePermutation([]byte(req.Perm))
	if err != nil {
		return nil, apiErr(http.StatusBadRequest, err.Error())
	}
	if perm.Bits() != p.cfg.LgN() {
		return nil, apiErr(http.StatusBadRequest,
			fmt.Sprintf("permutation acts on %d-bit addresses but dataset %s holds N=%d records", perm.Bits(), p.id, p.cfg.N))
	}
	pl, err := c.eng.Plan(p.cfg, perm, bmmc.WithFusion(req.Fuse == nil || *req.Fuse))
	if err != nil {
		return nil, apiErr(http.StatusBadRequest, err.Error())
	}
	sj := newStripedJob(c.nextID("j"), p.id, service.Summarize(pl))

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, apiErr(http.StatusServiceUnavailable, "coordinator is shutting down")
	}
	c.sjobs[sj.id] = sj
	ticket := p.bind()
	c.mu.Unlock()

	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.runStriped(sj, perm, p, ticket)
	}()
	return sj.status(), nil
}

// runStriped drives one striped job to a terminal state once every job
// submitted before it on the same dataset has finished.
func (c *Coordinator) runStriped(sj *stripedJob, perm bmmc.Permutation, p *placement, ticket int) {
	defer c.retire(p, ticket)
	if err := c.waitTurn(sj.ctx, p, ticket); err != nil {
		sj.setState(service.StateCanceled, "canceled")
		return
	}
	sj.setState(service.StateRunning, "")
	kappa := 0
	for 1<<kappa < len(p.stripes) {
		kappa++
	}
	locals, nodeMap, local, err := decompose(perm, kappa)
	if err != nil {
		sj.setState(service.StateFailed, err.Error())
		return
	}
	if local {
		err = c.runStripedLocal(sj, locals, nodeMap, p)
	} else {
		err = c.runStripedExchange(sj, perm, p)
	}
	switch {
	case err == nil:
		c.mu.Lock()
		p.jobsRun++
		c.mu.Unlock()
		sj.setState(service.StateDone, "")
	case sj.ctx.Err() != nil:
		sj.setState(service.StateCanceled, "canceled")
	default:
		sj.setState(service.StateFailed, err.Error())
	}
}

// bind reserves p's next execution-order ticket. Striped jobs on one
// dataset execute in ticket order, so a chain composes the way it was
// submitted and each job sees the stripe order its predecessor left. The
// caller holds c.mu.
func (p *placement) bind() int {
	if p.turn == nil {
		p.turn = make(chan struct{})
		p.retired = make(map[int]bool)
	}
	t := p.nextTicket
	p.nextTicket++
	return t
}

// waitTurn blocks until ticket is being served on p or ctx ends.
func (c *Coordinator) waitTurn(ctx context.Context, p *placement, ticket int) error {
	for {
		c.mu.Lock()
		serving, turn := p.nowServing, p.turn
		c.mu.Unlock()
		if serving == ticket {
			return nil
		}
		select {
		case <-turn:
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

// retire takes ticket out of p's turnstile — after its job ran, or was
// canceled before its turn. Retirement may arrive out of order; the
// turnstile advances past every consecutively retired ticket and wakes
// the waiters.
func (c *Coordinator) retire(p *placement, ticket int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p.retired[ticket] = true
	for p.retired[p.nowServing] {
		delete(p.retired, p.nowServing)
		p.nowServing++
	}
	close(p.turn)
	p.turn = make(chan struct{})
}

// runStripedLocal is the decomposed path: stripe s runs the local BMMC
// (A_ll, A_lh·s ⊕ c_lo) as a real job on its worker's disks, all stripes
// in parallel; the exchange phase then relabels stripe s as stripe
// nodeMap[s] — whole stripes move between logical slots, so no record
// crosses the network at all.
func (c *Coordinator) runStripedLocal(sj *stripedJob, locals []bmmc.Permutation, nodeMap []int, p *placement) error {
	c.mu.Lock()
	stripes := append([]stripeLoc(nil), p.stripes...)
	c.mu.Unlock()
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		agg    service.RunReport
		runErr error
	)
	for s := range stripes {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			start := time.Now()
			rep, subID, err := c.runSubJob(sj.ctx, sj, stripes[s], locals[s])
			span := obs.Span{Name: obs.SpanStripe, Pass: s,
				Worker: stripes[s].worker, JobID: subID, Start: start, End: time.Now()}
			mu.Lock()
			defer mu.Unlock()
			if err != nil {
				if runErr == nil {
					runErr = fmt.Errorf("stripe %d (%s on %s): %w", s, stripes[s].dsID, stripes[s].worker, err)
				}
				return
			}
			span.IOs = rep.ParallelIOs
			sj.addSpan(span)
			agg.Passes += rep.Passes
			agg.ParallelIOs += rep.ParallelIOs
			agg.ParallelReads += rep.ParallelReads
			agg.ParallelWrites += rep.ParallelWrites
			agg.BlocksRead += rep.BlocksRead
			agg.BlocksWritten += rep.BlocksWritten
		}(s)
	}
	wg.Wait()
	if runErr != nil {
		return runErr
	}
	// Block exchange: stripe s becomes logical stripe nodeMap[s]. The
	// stripe datasets stay where they are; only the placement's logical
	// order changes — the node tier's analogue of the paper's free
	// permutation of full stripes.
	relabeled := make([]stripeLoc, len(stripes))
	for s, t := range nodeMap {
		relabeled[t] = stripes[s]
	}
	c.mu.Lock()
	p.stripes = relabeled
	c.mu.Unlock()
	sj.mu.Lock()
	sj.report = &agg
	sj.mu.Unlock()
	return nil
}

// runSubJob executes one local BMMC on one stripe's worker and waits for
// the terminal state, recording the sub-job on sj for trace stitching.
func (c *Coordinator) runSubJob(ctx context.Context, sj *stripedJob, s stripeLoc, lp bmmc.Permutation) (*service.RunReport, string, error) {
	wc, err := c.clientFor(s.worker)
	if err != nil {
		return nil, "", err
	}
	js, err := wc.Submit(ctx, client.NewDatasetSubmitRequest(s.dsID, lp))
	if err != nil {
		return nil, "", asGatewayErr(err)
	}
	sj.addRef(s.worker, js.ID)
	final, err := wc.Watch(ctx, js.ID, nil)
	if err != nil {
		return nil, js.ID, asGatewayErr(err)
	}
	if final.State != service.StateDone {
		return nil, js.ID, fmt.Errorf("sub-job %s: %s (%s)", final.ID, final.State, final.Error)
	}
	if final.Report == nil {
		return &service.RunReport{}, js.ID, nil
	}
	return final.Report, js.ID, nil
}

// runStripedExchange is the general path for permutations whose A_hl
// block mixes stripe and local bits: gather every stripe, route records
// in coordinator memory, scatter the stripes back.
//
// Every stripe downloads concurrently into its own fixed section of one
// N-record image, and must fill it exactly; the router writes a second
// image; every stripe then uploads concurrently from its section, as a
// replayable body the internal retry policy may resend. The first failing
// transfer cancels its siblings.
func (c *Coordinator) runStripedExchange(sj *stripedJob, perm bmmc.Permutation, p *placement) error {
	c.mu.Lock()
	stripes := append([]stripeLoc(nil), p.stripes...)
	scfg := p.scfg
	c.mu.Unlock()
	per := scfg.N * bmmc.RecordBytes
	in := make([]byte, per*len(stripes))
	err := c.eachStripe(sj.ctx, stripes, func(ctx context.Context, j int, wc *client.Client) error {
		start := time.Now()
		w := &stripeWriter{sec: in[j*per : (j+1)*per]}
		if err := wc.DownloadDataset(ctx, stripes[j].dsID, w); err != nil {
			return asGatewayErr(err)
		}
		if w.n != per {
			return fmt.Errorf("short download: %d of %d bytes", w.n, per)
		}
		sj.addSpan(spanSince(obs.SpanGather, stripes[j].worker, start))
		return nil
	})
	if err != nil {
		return err
	}
	start := time.Now()
	out, err := routeRecords(sj.ctx, perm, in)
	if err != nil {
		return err
	}
	sj.addSpan(spanSince(obs.SpanRoute, "", start))
	err = c.eachStripe(sj.ctx, stripes, func(ctx context.Context, j int, wc *client.Client) error {
		start := time.Now()
		if err := wc.UploadDataset(ctx, stripes[j].dsID, bytes.NewReader(out[j*per:(j+1)*per])); err != nil {
			return asGatewayErr(err)
		}
		sj.addSpan(spanSince(obs.SpanScatter, stripes[j].worker, start))
		return nil
	})
	if err != nil {
		return err
	}
	sj.mu.Lock()
	sj.report = &service.RunReport{Passes: 1}
	sj.mu.Unlock()
	return nil
}

// eachStripe runs fn for every stripe concurrently under a context derived
// from ctx, with a client for the stripe's worker. The first error, named
// after its stripe, cancels the remaining calls and is returned once all
// have finished.
func (c *Coordinator) eachStripe(ctx context.Context, stripes []stripeLoc, fn func(ctx context.Context, j int, wc *client.Client) error) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		mu    sync.Mutex
		first error
	)
	for j, s := range stripes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			wc, err := c.clientFor(s.worker)
			if err == nil {
				err = fn(ctx, j, wc)
			}
			if err == nil {
				return
			}
			mu.Lock()
			if first == nil {
				first = fmt.Errorf("stripe %d (%s on %s): %w", j, s.dsID, s.worker, err)
				cancel()
			}
			mu.Unlock()
		}()
	}
	wg.Wait()
	return first
}

// createDataset places a new dataset: one worker for ordinary datasets,
// k ring-chosen workers for striped ones (each stripe hashed separately,
// so stripes spread without requiring k distinct workers).
func (c *Coordinator) createDataset(ctx context.Context, req service.CreateDatasetRequest) (*service.DatasetStatus, error) {
	if err := req.Config.Validate(); err != nil {
		return nil, apiErr(http.StatusBadRequest, err.Error())
	}
	backend := req.Backend
	if backend == "" {
		backend = service.BackendMem
	}
	id := req.ID
	if id == "" {
		id = c.nextID("d")
	}
	if _, _, _, isStripe := parseStripeID(id); isStripe {
		return nil, apiErr(http.StatusBadRequest, "dataset ids of the form *-s<j>of<k> are reserved for stripes")
	}
	k := req.Stripes
	if k == 0 {
		k = 1
	}
	scfg := req.Config
	if k > 1 {
		var err error
		if scfg, err = stripeConfig(req.Config, k); err != nil {
			return nil, apiErr(http.StatusBadRequest, err.Error())
		}
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, apiErr(http.StatusServiceUnavailable, "coordinator is shutting down")
	}
	if _, exists := c.placements[id]; exists {
		c.mu.Unlock()
		return nil, apiErr(http.StatusConflict, fmt.Sprintf("dataset %q already exists", id))
	}
	stripes := make([]stripeLoc, k)
	for j := range stripes {
		dsID := id
		if k > 1 {
			dsID = stripeID(id, j, k)
		}
		owner := c.ring.owner(dsID)
		if owner == "" {
			c.mu.Unlock()
			return nil, apiErr(http.StatusServiceUnavailable, "no workers have joined the cluster")
		}
		stripes[j] = stripeLoc{worker: owner, dsID: dsID}
	}
	p := &placement{
		id: id, cfg: req.Config, backend: backend, striped: k > 1, scfg: scfg,
		stripes: stripes, created: time.Now(),
	}
	// Reserve the id before provisioning so a same-id create cannot race.
	c.placements[id] = p
	c.dsOrder = append(c.dsOrder, id)
	c.mu.Unlock()

	var created []stripeLoc
	for _, s := range stripes {
		wc, err := c.clientFor(s.worker)
		if err == nil {
			_, err = wc.CreateDataset(ctx, service.CreateDatasetRequest{Config: scfg, Backend: backend, ID: s.dsID})
			err = asGatewayErr(err)
		}
		if err != nil {
			c.rollbackCreate(p, created)
			return nil, err
		}
		created = append(created, s)
	}
	c.log.Info("dataset placed", "dataset", id, "stripes", k, "workers", workerSet(stripes))
	return c.datasetStatus(ctx, id)
}

// rollbackCreate undoes a partially provisioned placement.
func (c *Coordinator) rollbackCreate(p *placement, created []stripeLoc) {
	c.mu.Lock()
	delete(c.placements, p.id)
	c.dsOrder = removeString(c.dsOrder, p.id)
	c.mu.Unlock()
	for _, s := range created {
		if wc, err := c.clientFor(s.worker); err == nil {
			//lint:allow ctxio -- delete fan-out must finish even if the deleting caller goes away; bounded by CallTimeout
			ctx, cancel := context.WithTimeout(context.Background(), c.o.CallTimeout)
			wc.DeleteDataset(ctx, s.dsID)
			cancel()
		}
	}
}

// deleteDataset removes a placement and its stripes everywhere. Worker
// errors abort with the placement intact, except gone/unknown answers,
// which mean the work is already done.
func (c *Coordinator) deleteDataset(ctx context.Context, id string) (*service.DatasetStatus, error) {
	p, err := c.placementOf(id)
	if err != nil {
		return nil, err
	}
	st, err := c.datasetStatus(ctx, id)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	stripes := append([]stripeLoc(nil), p.stripes...)
	c.mu.Unlock()
	for _, s := range stripes {
		wc, cerr := c.clientFor(s.worker)
		if cerr != nil {
			continue // worker already gone, and its data with it
		}
		if _, derr := wc.DeleteDataset(ctx, s.dsID); derr != nil {
			var ae *client.APIError
			if isAPIStatus(derr, &ae) && (ae.Status == http.StatusNotFound || ae.Status == http.StatusGone) {
				continue
			}
			return nil, asGatewayErr(derr)
		}
	}
	c.mu.Lock()
	delete(c.placements, id)
	c.dsOrder = removeString(c.dsOrder, id)
	c.mu.Unlock()
	st.Released = true
	return st, nil
}

func workerSet(stripes []stripeLoc) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range stripes {
		if !seen[s.worker] {
			seen[s.worker] = true
			out = append(out, s.worker)
		}
	}
	return out
}
