package cluster

import (
	"sort"
	"sync"
	"time"
)

// Health is a worker's position in the registry's failure-detection
// lifecycle, derived from heartbeat recency.
type Health string

const (
	// Healthy workers heartbeat on schedule and receive placements.
	Healthy Health = "healthy"
	// Suspect workers missed heartbeats but keep their placements; jobs
	// routed to them may fail and should be retried.
	Suspect Health = "suspect"
	// Draining workers announced a graceful leave; their datasets are
	// being handed off and they receive nothing new.
	Draining Health = "draining"
	// Down workers exceeded the down deadline and are evicted.
	Down Health = "down"
)

// WorkerInfo is the wire rendering of one registered worker:
// GET /cluster/v1/workers.
type WorkerInfo struct {
	ID       string    `json:"id"`
	Addr     string    `json:"addr"` // base URL the coordinator reaches the worker at
	Health   Health    `json:"health"`
	Joined   time.Time `json:"joined"`
	LastSeen time.Time `json:"last_seen"`
	Datasets int       `json:"datasets"` // placements currently on this worker
}

// registry tracks cluster membership from join/heartbeat/leave traffic.
// Health is computed, not stored: a worker is suspect past suspectAfter
// without a heartbeat and down past downAfter, so a coordinator restart
// recovers the same states from fresh traffic alone.
type registry struct {
	mu           sync.Mutex
	workers      map[string]*workerState
	suspectAfter time.Duration
	downAfter    time.Duration
}

type workerState struct {
	id       string
	addr     string
	joined   time.Time
	lastSeen time.Time
	draining bool
}

func newRegistry(suspectAfter, downAfter time.Duration) *registry {
	return &registry{
		workers:      make(map[string]*workerState),
		suspectAfter: suspectAfter,
		downAfter:    downAfter,
	}
}

// upsert registers (or refreshes) a worker, reporting whether it is new
// to the registry — the signal that placement must be rebalanced. A
// re-join of a known id from a new address updates the address in place:
// that is a worker restarting faster than its down deadline.
func (r *registry) upsert(id, addr string) (isNew bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	w, ok := r.workers[id]
	if !ok {
		r.workers[id] = &workerState{id: id, addr: addr, joined: now, lastSeen: now}
		return true
	}
	w.addr = addr
	w.lastSeen = now
	w.draining = false
	return false
}

// heartbeat refreshes a worker's liveness, reporting false for unknown
// ids so the worker knows to re-join (the coordinator may have
// restarted and lost the registry).
func (r *registry) heartbeat(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if ok {
		w.lastSeen = time.Now()
	}
	return ok
}

// drain marks a worker draining (graceful leave in progress), reporting
// whether it was registered.
func (r *registry) drain(id string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if ok {
		w.draining = true
	}
	return ok
}

// remove evicts a worker.
func (r *registry) remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.workers, id)
}

// addrOf returns a worker's base URL.
func (r *registry) addrOf(id string) (string, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	w, ok := r.workers[id]
	if !ok {
		return "", false
	}
	return w.addr, true
}

// healthAt computes one worker's health at time now.
func (r *registry) healthAt(w *workerState, now time.Time) Health {
	switch {
	case w.draining:
		return Draining
	case now.Sub(w.lastSeen) > r.downAfter:
		return Down
	case now.Sub(w.lastSeen) > r.suspectAfter:
		return Suspect
	default:
		return Healthy
	}
}

// snapshot returns every worker's info, sorted by id for stable output.
func (r *registry) snapshot() []WorkerInfo {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := time.Now()
	out := make([]WorkerInfo, 0, len(r.workers))
	for _, w := range r.workers {
		out = append(out, WorkerInfo{
			ID: w.id, Addr: w.addr, Health: r.healthAt(w, now),
			Joined: w.joined, LastSeen: w.lastSeen,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// expired returns the workers past the down deadline, for eviction.
func (r *registry) expired() []WorkerInfo {
	now := time.Now()
	var out []WorkerInfo
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, w := range r.workers {
		if !w.draining && now.Sub(w.lastSeen) > r.downAfter {
			out = append(out, WorkerInfo{ID: w.id, Addr: w.addr, Health: Down})
		}
	}
	return out
}
