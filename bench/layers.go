package main

import (
	"sort"
	"strings"
	"time"

	bmmc "repro"
	"repro/internal/obs"
)

// mark is one pass-runner progress event and the time it fired.
type mark struct {
	ev bmmc.PassEvent
	at time.Time
}

// ioCall is one storage call an instrumented backend saw.
type ioCall struct {
	write      bool
	blocks     int
	start, end time.Time
}

// engineSpans turns one execution's progress marks and storage calls into
// engine.pass and engine.load spans under parent. A load spans the interval
// from the previous progress event to its own; it carries the read-wait and
// write-busy parts of that interval (the rest is CPU: scatter and
// bookkeeping). With emitIO the calls also become pdm.read / pdm.write spans
// under the load they serve.
//
// The pass runner issues one load's reads as one batch on its prefetch
// goroutine, in load order, so a pass's reads are dealt to its loads in
// order; writes run on the main goroutine inside their load's interval.
// Read-wait is how long the main goroutine waited for the load's reads:
// max(0, end of its last read − start of the load).
func (t *tracer) engineSpans(parent int64, job string, marks []mark, calls []ioCall, emitIO bool) {
	type load struct {
		id         int64
		start, end time.Time
		reads      []ioCall
		writes     []ioCall
	}
	type pass struct {
		id         int64
		start, end time.Time
		loads      []*load
	}
	var passes []*pass
	var all []*load
	var prev time.Time
	for _, m := range marks {
		if m.ev.Load == 0 {
			passes = append(passes, &pass{id: t.newID(), start: m.at, end: m.at})
		} else if len(passes) > 0 {
			p := passes[len(passes)-1]
			l := &load{id: t.newID(), start: prev, end: m.at}
			p.loads = append(p.loads, l)
			p.end = m.at
			all = append(all, l)
		}
		prev = m.at
	}

	var reads, writes []ioCall
	for _, c := range calls {
		if c.write {
			writes = append(writes, c)
		} else {
			reads = append(reads, c)
		}
	}
	sort.Slice(reads, func(i, j int) bool { return reads[i].start.Before(reads[j].start) })
	for _, p := range passes {
		var in []ioCall
		for _, r := range reads {
			if !r.start.Before(p.start) && !r.start.After(p.end) {
				in = append(in, r)
			}
		}
		n := len(p.loads)
		if n == 0 || len(in) == 0 || len(in)%n != 0 {
			continue // not one batch shape per load: leave read-wait unknown
		}
		per := len(in) / n
		for i, l := range p.loads {
			l.reads = in[i*per : (i+1)*per : (i+1)*per]
		}
	}
	for _, w := range writes {
		i := sort.Search(len(all), func(i int) bool { return all[i].end.After(w.start) })
		if i < len(all) && !w.start.Before(all[i].start) {
			all[i].writes = append(all[i].writes, w)
		}
	}

	for _, p := range passes {
		t.record(span{ID: p.id, Parent: parent, Name: "engine.pass", Job: job, Start: p.start, End: p.end})
		for _, l := range p.loads {
			attrs := map[string]float64{}
			var wb time.Duration
			for _, w := range l.writes {
				wb += w.end.Sub(w.start)
			}
			attrs["write_us"] = us(wb)
			if len(l.reads) > 0 {
				var last time.Time
				for _, r := range l.reads {
					if r.end.After(last) {
						last = r.end
					}
				}
				if last.After(l.end) {
					last = l.end
				}
				attrs["read_wait_us"] = us(max(0, last.Sub(l.start)))
			}
			t.record(span{ID: l.id, Parent: p.id, Name: "engine.load", Job: job, Start: l.start, End: l.end, Attrs: attrs})
			if !emitIO {
				continue
			}
			for _, c := range l.reads {
				t.record(span{Parent: l.id, Name: "pdm.read", Job: job, Start: c.start, End: c.end,
					Attrs: map[string]float64{"blocks": float64(c.blocks)}})
			}
			for _, c := range l.writes {
				t.record(span{Parent: l.id, Name: "pdm.write", Job: job, Start: c.start, End: c.end,
					Attrs: map[string]float64{"blocks": float64(c.blocks)}})
			}
		}
	}
}

// traceMarks rebuilds a daemon job's progress marks and storage calls from
// its own trace: pass spans start a pass, load spans end at their progress
// event, and io spans are the daemon's instrumented backend calls.
func traceMarks(spans []obs.Span) ([]mark, []ioCall) {
	var passes, loads []obs.Span
	var calls []ioCall
	for _, s := range spans {
		switch s.Name {
		case obs.SpanPass:
			passes = append(passes, s)
		case obs.SpanLoad:
			loads = append(loads, s)
		case obs.SpanIO:
			calls = append(calls, ioCall{write: isWrite(s.Op), blocks: s.Blocks, start: s.Start, end: s.End})
		}
	}
	sort.Slice(passes, func(i, j int) bool { return passes[i].Start.Before(passes[j].Start) })
	sort.Slice(loads, func(i, j int) bool { return loads[i].End.Before(loads[j].End) })
	var marks []mark
	for _, p := range passes {
		marks = append(marks, mark{ev: bmmc.PassEvent{Pass: p.Pass, Load: 0}, at: p.Start})
		for _, l := range loads {
			if l.Pass == p.Pass {
				marks = append(marks, mark{ev: bmmc.PassEvent{Pass: l.Pass, Load: l.Load}, at: l.End})
			}
		}
	}
	return marks, calls
}

// executeSpan records the engine spans of a daemon job from its trace, under
// an engine.execute span covering its passes and carrying its parallel I/Os.
func (t *tracer) executeSpan(parent int64, job string, trace []obs.Span, ios int) {
	marks, calls := traceMarks(trace)
	if len(marks) == 0 {
		return
	}
	id := t.newID()
	t.engineSpans(id, job, marks, calls, false)
	t.record(span{ID: id, Parent: parent, Name: "engine.execute", Job: job,
		Start: marks[0].at, End: marks[len(marks)-1].at, Attrs: map[string]float64{"ios": float64(ios)}})
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// layerMetrics derives the per-layer metrics of a traced run from the spans
// that started inside its timed loop [from, to], the storage counters over
// the loop, and the system's plan cache ratio. Per-job figures divide by the
// jobs completed in the loop; planning spans come from setup.
func layerMetrics(all []span, io ioTotals, jobs int, cacheRatio float64, from, to time.Time) []metric {
	byName := make(map[string][]span)
	kids := make(map[int64][]span)
	for _, s := range all {
		if s.Name != "core.plan" && (s.Start.Before(from) || s.Start.After(to)) {
			continue
		}
		byName[s.Name] = append(byName[s.Name], s)
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	n := float64(jobs)
	total := func(name string) time.Duration {
		var sum time.Duration
		for _, s := range byName[name] {
			sum += s.dur()
		}
		return sum
	}
	mean := func(name string, unit time.Duration) float64 {
		if len(byName[name]) == 0 {
			return 0
		}
		return float64(total(name)) / float64(len(byName[name])) / float64(unit)
	}
	sumAttr := func(name, attr string) float64 {
		var v float64
		for _, s := range byName[name] {
			v += s.Attrs[attr]
		}
		return v
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}

	execNS := float64(total("engine.execute").Nanoseconds())
	ios := sumAttr("engine.execute", "ios")
	var waitUS, cpuUS, waited float64
	for _, l := range byName["engine.load"] {
		d := us(l.dur())
		rw, ok := l.Attrs["read_wait_us"]
		if ok {
			waitUS += rw
			waited++
		}
		cpuUS += max(0, d-rw-l.Attrs["write_us"])
	}
	loads := float64(len(byName["engine.load"]))

	// The HTTP overhead: the client's calls into bmmcd minus the
	// server-side time they caused.
	var httpOverhead time.Duration
	for _, name := range []string{"client.submit", "client.upload", "client.download", "client.release"} {
		for _, s := range byName[name] {
			var served []span
			for _, k := range kids[s.ID] {
				if strings.HasPrefix(k.Name, "service.") {
					served = append(served, k)
				}
			}
			if len(served) > 0 {
				httpOverhead += s.dur() - covered(s.Start, s.End, served)
			}
		}
	}
	// Worker-side storage streaming inside a coordinator span: the part of
	// it the workers account for.
	workerIO := func(s span) time.Duration {
		var v time.Duration
		for _, name := range []string{"worker.upload", "worker.download"} {
			for _, w := range byName[name] {
				if !w.Start.Before(s.Start) && !w.Start.After(s.End) {
					v += w.dur()
				}
			}
		}
		return v
	}
	var exchange, proxy time.Duration
	for _, s := range byName["cluster.general"] {
		exchange += s.dur() - workerIO(s)
	}
	for _, name := range []string{"cluster.upload", "cluster.download"} {
		for _, s := range byName[name] {
			proxy += s.dur() - workerIO(s)
		}
	}
	var workerCalls, workerBytes float64
	for name, ss := range byName {
		if strings.HasPrefix(name, "worker.") {
			workerCalls += float64(len(ss))
			workerBytes += sumAttr(name, "bytes")
		}
	}
	ms := float64(time.Millisecond)

	return []metric{
		{"core.plan_us", mean("core.plan", time.Microsecond), "us"},
		{"core.plan_cache_hit_ratio", cacheRatio, "ratio"},
		{"engine.execute_ms", mean("engine.execute", time.Millisecond), "ms"},
		{"engine.pass_ms", mean("engine.pass", time.Millisecond), "ms"},
		{"engine.load_us", mean("engine.load", time.Microsecond), "us"},
		{"engine.read_wait_us", ratio(waitUS, waited), "us"},
		{"engine.cpu_us", ratio(cpuUS, loads), "us"},
		{"engine.ns_per_pio", ratio(execNS, ios), "ns"},
		{"pdm.parallel_ios", ios / n, "count"},
		{"pdm.read_busy_ms", float64(io[rd][ioNS]) / 1e6 / n, "ms"},
		{"pdm.write_busy_ms", float64(io[wr][ioNS]) / 1e6 / n, "ms"},
		{"pdm.read_calls", float64(io[rd][ioCalls]) / n, "count"},
		{"pdm.write_calls", float64(io[wr][ioCalls]) / n, "count"},
		{"pdm.blocks_per_call", ratio(float64(io[rd][ioBlocks]+io[wr][ioBlocks]), float64(io[rd][ioCalls]+io[wr][ioCalls])), "blocks"},
		{"pdm.read_MBps", ratio(float64(io[rd][ioBytes])/1e6, float64(io[rd][ioNS])/1e9), "MB/s"},
		{"pdm.write_MBps", ratio(float64(io[wr][ioBytes])/1e6, float64(io[wr][ioNS])/1e9), "MB/s"},
		{"pdm.busy_ns_per_pio", ratio(float64(io[rd][ioNS]+io[wr][ioNS]), ios), "ns"},
		{"pdm.sync_ms", float64(total("pdm.sync")) / ms / n, "ms"},
		{"service.submit_ms", mean("service.submit", time.Millisecond), "ms"},
		{"service.upload_ms", mean("service.upload", time.Millisecond), "ms"},
		{"service.queue_wait_ms", mean("service.queue_wait", time.Millisecond), "ms"},
		{"service.run_ms", mean("service.run", time.Millisecond), "ms"},
		{"service.notify_ms", mean("service.notify", time.Millisecond), "ms"},
		{"service.download_ms", mean("service.download", time.Millisecond), "ms"},
		{"service.release_ms", mean("service.delete_job", time.Millisecond), "ms"},
		{"service.http_overhead_ms", float64(httpOverhead) / ms / n, "ms"},
		{"cluster.decomposed_ms", mean("cluster.decomposed", time.Millisecond), "ms"},
		{"cluster.general_ms", mean("cluster.general", time.Millisecond), "ms"},
		{"cluster.subjob_ms", mean("cluster.subjob", time.Millisecond), "ms"},
		{"cluster.exchange_ms", ratio(float64(exchange)/ms, float64(len(byName["cluster.general"]))), "ms"},
		{"cluster.proxy_overhead_ms", float64(proxy) / ms / n, "ms"},
		{"cluster.worker_calls", workerCalls / n, "count"},
		{"cluster.worker_MB", workerBytes / 1e6 / n, "MB"},
	}
}

// traceOverhead compares a workload's traced job latency with its untraced
// run: the cost of the instrumentation itself.
func traceOverhead(plain, traced *result) metric {
	m := metric{"trace_overhead_pct", 0, "%"}
	a, okA := plain.value("job_p50_ms")
	b, okB := traced.value("job_p50_ms")
	if okA && okB && a > 0 {
		m.Value = (b/a - 1) * 100
	}
	return m
}
