package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/bits"
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
// phase. Its record is bmmcd's job record, bound to the dataset's gate, so
// clients cannot tell it from a proxied job; it adds only the worker
// sub-jobs it spawned, for trace stitching.
type stripedJob struct {
	*service.JobRecord
	c *Coordinator

	mu   sync.Mutex
	refs []subJobRef
}

// Stop cancels the job. Like bmmcd's cancel of a running job, it only
// requests the stop: runStriped records the terminal state once the run
// has stopped.
func (sj *stripedJob) Stop() { sj.Cancel() }

// errStripedJobData answers a striped job's own input and output.
var errStripedJobData = service.Error(http.StatusConflict,
	"striped jobs run on their dataset; use the dataset's input/output endpoints")

// Upload refuses: a striped job's records are its dataset's.
func (sj *stripedJob) Upload(context.Context, io.Reader) error { return errStripedJobData }

// Output refuses: a striped job's records are its dataset's.
func (sj *stripedJob) Output() (service.LocalDataset, error) { return nil, errStripedJobData }

// stripedSet is a striped placement as the front end serves it: its gate
// admits jobs and streams, and its records move stripe by stripe.
type stripedSet struct {
	*service.Gate
	c *Coordinator
	p *placement
}

// Load splits an admitted upload into contiguous per-stripe ranges and
// uploads them in stripe order. A body that fails to read is the client's
// fault, a 400, as it is at bmmcd.
func (s stripedSet) Load(ctx context.Context, r io.Reader) error {
	body := &bodyReader{r: r}
	per := int64(s.p.scfg.N) * bmmc.RecordBytes
	for _, st := range s.c.stripesOf(s.p) {
		wc, err := s.c.clientFor(st.worker)
		if err == nil {
			err = asGatewayErr(wc.UploadDataset(ctx, st.dsID, io.LimitReader(body, per)))
		}
		switch {
		case body.err != nil:
			return service.Error(http.StatusBadRequest, "loading dataset input: "+body.err.Error())
		case err != nil:
			return err
		}
	}
	return nil
}

// Dump concatenates an admitted download of the stripes in logical order.
func (s stripedSet) Dump(ctx context.Context, w io.Writer) error {
	for _, st := range s.c.stripesOf(s.p) {
		wc, err := s.c.clientFor(st.worker)
		if err == nil {
			err = wc.DownloadDataset(ctx, st.dsID, w)
		}
		if err != nil {
			return fmt.Errorf("stripe %s on %s: %w", st.dsID, st.worker, err)
		}
	}
	return nil
}

// bodyReader remembers the first error its reader returned.
type bodyReader struct {
	r   io.Reader
	err error
}

func (b *bodyReader) Read(p []byte) (int, error) {
	n, err := b.r.Read(p)
	if err != nil && err != io.EOF && b.err == nil {
		b.err = err
	}
	return n, err
}

// submitStriped starts a coordinator-run job over a striped dataset and
// returns its initial status. The request is vetted and planned as bmmcd
// vets and plans a dataset job. The pass decomposes into per-node
// sub-jobs plus a block exchange when the permutation's A_hl block is
// zero; otherwise the coordinator routes every record itself (the general
// path, O(N) coordinator memory).
func (c *Coordinator) submitStriped(req service.SubmitRequest, p *placement) (*service.JobStatus, error) {
	pl, err := service.PlanDatasetJob(c.eng, req, p.gate)
	if err != nil {
		return nil, err
	}
	id := c.nextID("j")

	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, service.Error(http.StatusServiceUnavailable, "coordinator is shutting down")
	}
	ticket, err := p.gate.Bind()
	if err != nil {
		return nil, err
	}
	sj := &stripedJob{JobRecord: service.NewJobRecord(id, p.gate, pl), c: c}
	c.sjobs[id] = sj
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		c.runStriped(sj, pl.Permutation(), p, ticket)
	}()
	return sj.Status(), nil
}

// runStriped drives one striped job to a terminal state once every job
// submitted before it on the same dataset has finished. Striped jobs on
// one dataset execute in ticket order, so a chain composes the way it was
// submitted and each job sees the stripe order its predecessor left; a job
// canceled while it waits gives up its turn.
func (c *Coordinator) runStriped(sj *stripedJob, perm bmmc.Permutation, p *placement, ticket int) {
	defer p.gate.Retire(ticket)
	var rep *service.RunReport
	err := p.gate.Wait(sj.Context(), ticket)
	if err == nil {
		p.gate.Ran()
		sj.SetState(service.StateRunning)
		rep, err = c.runStripedPass(sj, perm, p)
	}
	sj.Finish(rep, err)
}

// runStripedPass runs a striped job's one pass: per-node sub-jobs plus a
// stripe relabel when the permutation decomposes, the coordinator exchange
// otherwise.
func (c *Coordinator) runStripedPass(sj *stripedJob, perm bmmc.Permutation, p *placement) (*service.RunReport, error) {
	stripes := c.stripesOf(p)
	locals, nodeMap, local, err := decompose(perm, bits.TrailingZeros(uint(len(stripes))))
	switch {
	case err != nil:
		return nil, err
	case local:
		return c.runStripedLocal(sj, locals, nodeMap, p, stripes)
	}
	return c.runStripedExchange(sj, perm, p.scfg, stripes)
}

// runStripedLocal is the decomposed path: stripe s runs the local BMMC
// (A_ll, A_lh·s ⊕ c_lo) as a real job on its worker's disks, all stripes
// in parallel; the exchange phase then relabels stripe s as stripe
// nodeMap[s] — whole stripes move between logical slots, so no record
// crosses the network at all.
func (c *Coordinator) runStripedLocal(sj *stripedJob, locals []bmmc.Permutation, nodeMap []int, p *placement, stripes []stripeLoc) (*service.RunReport, error) {
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
			rep, subID, err := c.runSubJob(sj, stripes[s], locals[s])
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
			sj.AddSpan(span)
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
		return nil, runErr
	}
	// Block exchange: stripe s becomes logical stripe nodeMap[s]. The
	// stripe datasets stay where they are; only the placement's logical
	// order changes — the node tier's analogue of the paper's free
	// permutation of full stripes. It permutes the placement's current
	// stripes, which a rebalance may have moved since the snapshot.
	c.mu.Lock()
	relabeled := make([]stripeLoc, len(p.stripes))
	for s, t := range nodeMap {
		relabeled[t] = p.stripes[s]
	}
	p.stripes = relabeled
	c.mu.Unlock()
	return &agg, nil
}

// runSubJob executes one local BMMC on one stripe's worker and waits for
// the terminal state, recording the sub-job on sj for trace stitching. It
// submits nothing once sj is canceled. A submitted sub-job never outlives
// the striped job: the submit is not cut short, so its id is never lost,
// and a cancellation cancels the sub-job on its worker and waits it out.
func (c *Coordinator) runSubJob(sj *stripedJob, s stripeLoc, lp bmmc.Permutation) (*service.RunReport, string, error) {
	ctx := sj.Context()
	if err := ctx.Err(); err != nil {
		return nil, "", err
	}
	wc, err := c.clientFor(s.worker)
	if err != nil {
		return nil, "", err
	}
	detached := context.WithoutCancel(ctx)
	js, err := wc.Submit(detached, client.NewDatasetSubmitRequest(s.dsID, lp))
	if err != nil {
		return nil, "", asGatewayErr(err)
	}
	sj.mu.Lock()
	sj.refs = append(sj.refs, subJobRef{worker: s.worker, jobID: js.ID})
	sj.mu.Unlock()
	final, err := wc.Watch(ctx, js.ID, nil)
	if err != nil && ctx.Err() != nil {
		// A canceled sub-job stops within a memoryload, so callTimeout
		// bounds only a worker that stopped answering. A failed cancel
		// leaves the sub-job to end on its own; the watch waits either way.
		wctx, cancel := context.WithTimeout(detached, callTimeout)
		defer cancel()
		_, _ = wc.Cancel(wctx, js.ID)
		final, err = wc.Watch(wctx, js.ID, nil)
	}
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
func (c *Coordinator) runStripedExchange(sj *stripedJob, perm bmmc.Permutation, scfg bmmc.Config, stripes []stripeLoc) (*service.RunReport, error) {
	per := scfg.N * bmmc.RecordBytes
	in := make([]byte, per*len(stripes))
	err := c.eachStripe(sj.Context(), stripes, func(ctx context.Context, j int, wc *client.Client) error {
		start := time.Now()
		w := &stripeWriter{sec: in[j*per : (j+1)*per]}
		if err := wc.DownloadDataset(ctx, stripes[j].dsID, w); err != nil {
			return asGatewayErr(err)
		}
		if w.n != per {
			return fmt.Errorf("short download: %d of %d bytes", w.n, per)
		}
		sj.AddSpan(spanSince(obs.SpanGather, stripes[j].worker, start))
		return nil
	})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out, err := routeRecords(sj.Context(), perm, in)
	if err != nil {
		return nil, err
	}
	sj.AddSpan(spanSince(obs.SpanRoute, "", start))
	err = c.eachStripe(sj.Context(), stripes, func(ctx context.Context, j int, wc *client.Client) error {
		start := time.Now()
		if err := wc.UploadDataset(ctx, stripes[j].dsID, bytes.NewReader(out[j*per:(j+1)*per])); err != nil {
			return asGatewayErr(err)
		}
		sj.AddSpan(spanSince(obs.SpanScatter, stripes[j].worker, start))
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &service.RunReport{Passes: 1}, nil
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

// NewDataset places a new dataset: one worker for ordinary datasets,
// k ring-chosen workers for striped ones (each stripe hashed separately,
// so stripes spread without requiring k distinct workers).
func (c *Coordinator) NewDataset(ctx context.Context, req service.CreateDatasetRequest) (*service.DatasetStatus, error) {
	if err := req.Config.Validate(); err != nil {
		return nil, service.Error(http.StatusBadRequest, err.Error())
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
		return nil, service.Error(http.StatusBadRequest, "dataset ids of the form *-s<j>of<k> are reserved for stripes")
	}
	k := req.Stripes
	if k == 0 {
		k = 1
	}
	scfg := req.Config
	if k > 1 {
		var err error
		if scfg, err = stripeConfig(req.Config, k); err != nil {
			return nil, service.Error(http.StatusBadRequest, err.Error())
		}
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, service.Error(http.StatusServiceUnavailable, "coordinator is shutting down")
	}
	if _, exists := c.placements[id]; exists {
		c.mu.Unlock()
		return nil, service.Error(http.StatusConflict, fmt.Sprintf("dataset %q already exists", id))
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
			return nil, service.Error(http.StatusServiceUnavailable, "no workers have joined the cluster")
		}
		stripes[j] = stripeLoc{worker: owner, dsID: dsID}
	}
	p := &placement{id: id, cfg: req.Config, scfg: scfg, stripes: stripes}
	if k > 1 {
		p.gate = service.NewGate(service.DatasetStatus{ID: id, Config: req.Config, Backend: backend, Created: time.Now()})
	}
	// Reserve the id before provisioning so a same-id create cannot race.
	c.placements[id] = p
	c.dsOrder = append(c.dsOrder, id)
	c.mu.Unlock()

	var created []stripeLoc
	var st *service.DatasetStatus
	for _, s := range stripes {
		wc, err := c.clientFor(s.worker)
		if err == nil {
			st, err = wc.CreateDataset(ctx, service.CreateDatasetRequest{Config: scfg, Backend: backend, ID: s.dsID})
			err = asGatewayErr(err)
		}
		if err != nil {
			c.rollbackCreate(p, created)
			return nil, err
		}
		created = append(created, s)
	}
	c.log.Info("dataset placed", "dataset", id, "stripes", k, "workers", workerSet(stripes))
	if p.gate != nil {
		return p.gate.Status(), nil
	}
	return st, nil // an unstriped dataset is its one worker's, which just answered
}

// rollbackCreate undoes a partially provisioned placement.
func (c *Coordinator) rollbackCreate(p *placement, created []stripeLoc) {
	c.mu.Lock()
	delete(c.placements, p.id)
	c.dsOrder = removeString(c.dsOrder, p.id)
	c.mu.Unlock()
	for _, s := range created {
		c.dropCopy(s.worker, s.dsID)
	}
}

// DropDataset removes a placement and its stripes everywhere. A striped
// dataset is released through its gate first: refused with 409 while jobs
// are bound, it then waits for in-flight streams. Worker errors abort with
// the placement intact, except gone/unknown answers, which mean the work
// is already done; a retried delete finishes it.
func (c *Coordinator) DropDataset(ctx context.Context, id string) (*service.DatasetStatus, error) {
	p, err := c.placementOf(id)
	if err == nil {
		err = c.settled(p)
	}
	if err != nil {
		return nil, err
	}
	if p.gate != nil {
		if _, err := p.gate.TryRelease(); err != nil {
			return nil, err
		}
	}
	st, err := c.datasetStatus(ctx, id)
	if err != nil {
		return nil, err
	}
	for _, s := range c.stripesOf(p) {
		wc, cerr := c.clientFor(s.worker)
		if cerr != nil {
			continue // worker already gone, and its data with it
		}
		if _, derr := wc.DeleteDataset(ctx, s.dsID); derr != nil {
			var ae *client.APIError
			if errors.As(derr, &ae) && (ae.Status == http.StatusNotFound || ae.Status == http.StatusGone) {
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
