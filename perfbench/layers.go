package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"

	"dspaddr/internal/obs"
)

// engineRoutes are the trace routes whose requests run the engine: the
// sync endpoints, and async job runs (route "job").
var engineRoutes = map[string]bool{"/v1/allocate": true, "/v1/batch": true, "job": true}

// serverSpans reads every node's retained traces from /debug/requests
// and sums their spans' µs by name over the traces that ran the
// engine, whose number it also returns.
func serverSpans(t *topology) (map[string]float64, int, error) {
	micros := make(map[string]float64)
	traces := 0
	for _, p := range t.nodes {
		resp, err := http.Get(p.base + "/debug/requests")
		if err != nil {
			return nil, 0, err
		}
		var body struct {
			Traces []obs.TraceSnapshot `json:"traces"`
		}
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil {
			return nil, 0, fmt.Errorf("%s/debug/requests: %w", p.base, err)
		}
		for _, tr := range body.Traces {
			if !engineRoutes[tr.Route] {
				continue
			}
			traces++
			for _, sp := range tr.Spans {
				micros[sp.Name] += float64(sp.DurMicros)
			}
		}
	}
	return micros, traces, nil
}

// costPrefix sums the served and the replayed cost over the ops the
// replay covered.
func (r *result) costPrefix() (served, replayed int64) {
	for i, c := range r.rep.cost {
		served += r.open.opCost[i]
		replayed += c
	}
	return served, replayed
}

// layerTimes are the per-op (or per-request) µs figures the
// per-layer metrics and the breakdown are built from.
type layerTimes struct {
	client                       float64 // client-observed, send to answer, per HTTP op
	handler                      float64 // node handler per request
	gateway, forward             float64 // cluster only, per request
	walAppendPerReq              float64 // cluster only
	parse, engine, core          float64 // replay, per op
	distgraph, pathcover, merged float64
	route                        float64
}

func (r *result) layerTimes() layerTimes {
	d := r.window
	ops := map[string]string{"route": "/v1/allocate|/v1/batch|/v1/jobs|/v1/jobs/{id}"}
	var lt layerTimes
	lt.client = r.open.sendSum / float64(len(r.open.lat))
	var reqs float64
	lt.handler, reqs = d.nodeMeanUS("rcaserve_http_request_duration_seconds", ops)
	lt.gateway, _ = d.gateMeanUS("rcagate_http_request_duration_seconds", ops)
	lt.forward, _ = d.gateMeanUS("rcagate_forward_duration_seconds", nil)
	if reqs > 0 {
		lt.walAppendPerReq = d.node("rcaserve_wal_append_duration_seconds", "rcaserve_wal_append_duration_seconds_sum", nil) / reqs * 1e6
	}
	perOp := func(name string) float64 {
		if r.rep.ops == 0 {
			return 0
		}
		return float64(r.rep.total[name]) / 1e3 / float64(r.rep.ops)
	}
	lt.parse, lt.engine, lt.core = perOp("frontend.parse"), perOp("engine.run"), perOp("core.allocate")
	lt.distgraph, lt.pathcover, lt.merged = perOp("distgraph.build"), perOp("pathcover.cover"), perOp("merge.reduce")
	lt.route = perOp("cluster.route")
	return lt
}

// breakdownRow is one layer's self time per op.
type breakdownRow struct {
	layer string
	us    float64
	src   string
}

// breakdown attributes one op's wall time to the layers on its request
// path, outermost first; each row is a layer's own time, its measured
// time minus that of the layers it calls. On cluster-async the path
// ends at the node's handler, which admits the job and answers 202, and
// the engine runs after the answer. The solver rows are apart: they
// split the engine's misses into core and its steps as single-threaded
// CPU time per op, while the engine runs a batch's jobs on every CPU at
// once, so on a batch they can add up to more than the engine's wall
// time.
func (r *result) breakdown() (path, solver []breakdownRow) {
	lt := r.layerTimes()
	steps := lt.distgraph + lt.pathcover + lt.merged
	solver = []breakdownRow{
		{"internal/core (own time)", lt.core - steps, "R"},
		{"internal/distgraph", lt.distgraph, "R"},
		{"internal/pathcover", lt.pathcover, "R"},
		{"internal/merge", lt.merged, "R"},
	}
	if !r.spec.gateway {
		return []breakdownRow{
			{"transport (loopback + net/http)", lt.client - lt.handler, "S"},
			{"cmd/rcaserve (decode, validate, encode, write)", lt.handler - lt.parse - lt.engine, "S-R"},
			{"internal/frontend", lt.parse, "R"},
			{"internal/engine (with the solves it runs)", lt.engine, "R"},
		}, solver
	}
	return []breakdownRow{
		{"transport (loopback + net/http)", lt.client - lt.gateway, "S"},
		{"internal/cluster gateway (route, breaker, hedge)", lt.gateway - lt.forward, "S"},
		{"internal/cluster forward hop (net)", lt.forward - lt.handler, "S"},
		{"cmd/rcaserve (decode, admit, encode)", lt.handler - lt.walAppendPerReq, "S"},
		{"internal/wal (append)", lt.walAppendPerReq, "S"},
	}, solver
}

// printBreakdown prints each layer's self time per op, its share of the
// traced end-to-end median, and what the layers leave unattributed.
func (r *result) printBreakdown(f *os.File) {
	tracedMedian := quantile(append([]float64(nil), r.tracedOpen.lat...), 0.5) * 1e3
	lt := r.layerTimes()
	path, solver := r.breakdown()
	fmt.Fprintf(f, "\nbreakdown per HTTP op against the traced end-to-end median %.1fµs\n", tracedMedian)
	var sum float64
	for _, row := range path {
		sum += row.us
		fmt.Fprintf(f, "  %-50s %10.2fµs %6.1f%%  %s\n", row.layer, row.us, 100*row.us/tracedMedian, row.src)
	}
	fmt.Fprintf(f, "  %-50s %10.2fµs %6.1f%%\n", "unattributed remainder", tracedMedian-sum, 100*(tracedMedian-sum)/tracedMedian)
	if r.spec.gateway {
		fmt.Fprintf(f, "  after the 202, per op: frontend %.2fµs, engine %.2fµs (R)\n", lt.parse, lt.engine)
	}
	fmt.Fprintln(f, "  engine misses, single-threaded CPU per op:")
	for _, row := range solver {
		fmt.Fprintf(f, "  %-50s %10.2fµs          %s\n", row.layer, row.us, row.src)
	}
	served, replayed := r.costPrefix()
	fmt.Fprintf(f, "  replay: %d of %d open-loop ops, %d re-solves; served cost %d, replayed cost %d\n",
		r.rep.ops, len(r.open.late), r.rep.solves, served, replayed)
	fmt.Fprintf(f, "  server spans (T) over %d traced engine requests, µs per request:", r.tracedRequests)
	for _, name := range []string{"engine.queue", "key.build", "cache.lookup", "flight.wait", "result.rewrite", "solve", "graph.build", "cover", "merge", "assign.commit"} {
		fmt.Fprintf(f, " %s %.2f", name, r.spanPerRequest(name))
	}
	fmt.Fprintln(f)
}

func (r *result) spanPerRequest(name string) float64 {
	if r.tracedRequests == 0 {
		return 0
	}
	return r.spans[name] / float64(r.tracedRequests)
}

// perLayer computes the per-layer metrics of a traced run.
func (r *result) perLayer() []metric {
	d := r.window
	lt := r.layerTimes()
	path, _ := r.breakdown()
	var attributed float64
	for _, row := range path {
		attributed += row.us
	}
	route := func(rt string) float64 {
		v, _ := d.nodeMeanUS("rcaserve_http_request_duration_seconds", map[string]string{"route": rt})
		return v
	}
	hits := d.node("rcaserve_engine_cache_hits_total", "rcaserve_engine_cache_hits_total", nil)
	misses := d.node("rcaserve_engine_cache_misses_total", "rcaserve_engine_cache_misses_total", nil)
	solveUS, _ := d.nodeMeanUS("rcaserve_engine_solve_duration_seconds", nil)
	queueUS, _ := d.nodeMeanUS("rcaserve_job_queue_wait_duration_seconds", nil)
	runUS, _ := d.nodeMeanUS("rcaserve_job_run_duration_seconds", nil)
	appendUS, appends := d.nodeMeanUS("rcaserve_wal_append_duration_seconds", nil)
	fsyncUS, _ := d.nodeMeanUS("rcaserve_wal_fsync_duration_seconds", nil)
	hedges := d.gate("rcagate_hedges_total", "rcagate_hedges_total", nil)
	wins := d.gate("rcagate_hedge_wins_total", "rcagate_hedge_wins_total", nil)
	attempted := r.open.attempted + r.closed.attempted
	untracedP50 := quantile(append([]float64(nil), r.open.lat...), 0.5)
	tracedP50 := quantile(append([]float64(nil), r.tracedOpen.lat...), 0.5)
	first, self := lt.handler, path[1].us // the first handler the client reaches; rcaserve's own row
	if r.spec.gateway {
		first, self = lt.gateway, path[3].us
	}
	m := func(name, unit string, v float64, src string) metric {
		return metric{Name: name, Unit: unit, Value: v, src: src}
	}
	p99 := r.windowed("latency_p99_ms", 0.99)
	p99.src = "open loop, from the due time, median over windows"
	return []metric{
		p99,
		m("write_p99_ms", "ms", quantile(r.open.writes, 0.99), "open loop: POST and DELETE of /v1/jobs (cluster-async only)"),
		m("read_p99_ms", "ms", quantile(r.open.reads, 0.99), "open loop: GET /v1/jobs/{id} polls (cluster-async only)"),
		m("fail_frac", "ratio", float64(r.open.failed+r.closed.failed)/float64(attempted), "failed / attempted HTTP ops"),
		m("gen_late_p99_ms", "ms", quantile(r.open.late, 0.99), "the generator's own lateness in the open loop"),
		m("host_steal_frac", "ratio", r.openSteal, "share of CPU time the host took during the open loop"),
		m("traced_latency_p50_ms", "ms", tracedP50, "open loop against traced servers"),
		m("tracing_overhead_ratio", "ratio", tracedP50/untracedP50-1, "traced over untraced latency_p50, minus 1"),
		m("transport.us", "us", lt.client-first, "S: client mean minus first handler mean"),
		m("rcaserve.handler_us.allocate", "us", route("/v1/allocate"), "S"),
		m("rcaserve.handler_us.batch", "us", route("/v1/batch"), "S"),
		m("rcaserve.handler_us.jobs_submit", "us", route("/v1/jobs"), "S"),
		m("rcaserve.handler_us.jobs_get", "us", route("/v1/jobs/{id}"), "S (GET and DELETE share the route)"),
		m("rcaserve.self_us", "us", self, "S-R: handler minus frontend and engine (cluster: minus WAL append)"),
		m("frontend.parse_us", "us", lt.parse, "R per op"),
		m("frontend.parses", "count", float64(r.rep.parses), "R"),
		m("engine.hit_ratio", "ratio", ratio(hits, hits+misses), "S"),
		m("engine.deduped", "count", d.node("rcaserve_engine_deduped_total", "rcaserve_engine_deduped_total", nil), "S"),
		m("engine.sheds", "count", d.node("rcaserve_shed_total", "rcaserve_shed_total", nil), "S"),
		m("engine.run_us", "us", lt.engine, "R per op"),
		m("engine.key_us", "us", r.spanPerRequest("key.build"), "T per engine request"),
		m("engine.lookup_us", "us", r.spanPerRequest("cache.lookup"), "T per engine request"),
		m("engine.flight_wait_us", "us", r.spanPerRequest("flight.wait"), "T per engine request"),
		m("engine.rewrite_us", "us", r.spanPerRequest("result.rewrite"), "T per engine request"),
		m("engine.solve_us", "us", solveUS, "S per miss"),
		m("core.allocate_us", "us", lt.core, "R per op"),
		m("distgraph.build_us", "us", lt.distgraph, "R per op"),
		m("pathcover.cover_us", "us", lt.pathcover, "R per op"),
		m("pathcover.bb_nodes", "count", float64(r.rep.bbNodes), "R"),
		m("pathcover.virtual_regs", "count", float64(r.rep.virtualRegs), "R"),
		m("merge.reduce_us", "us", lt.merged, "R per op"),
		m("merge.merges", "count", float64(r.rep.merg), "R: sum of K~-K"),
		m("jobs.queue_wait_us", "us", queueUS, "S per job"),
		m("jobs.run_us", "us", runUS, "S per job"),
		m("jobs.rejected", "count", d.node("rcaserve_jobs_rejected_total", "rcaserve_jobs_rejected_total", nil), "S"),
		m("wal.append_us", "us", appendUS, "S per append"),
		m("wal.appends", "count", appends, "S"),
		m("wal.fsync_us", "us", fsyncUS, "S per fsync"),
		m("wal.fsyncs", "count", d.node("rcaserve_wal_fsyncs_total", "rcaserve_wal_fsyncs_total", nil), "S"),
		m("cluster.gateway_us", "us", lt.gateway, "S per request"),
		m("cluster.forward_us", "us", lt.forward, "S per forward"),
		m("cluster.gateway_self_us", "us", nonzero(lt.gateway, lt.gateway-lt.forward), "S: gateway minus forward"),
		m("cluster.forward_net_us", "us", nonzero(lt.forward, lt.forward-lt.handler), "S: forward minus node handler"),
		m("cluster.route_us", "us", lt.route, "R per op: RouteKey + Ring.Owner"),
		m("cluster.retries", "count", d.gate("rcagate_forward_retries_total", "rcagate_forward_retries_total", nil), "S"),
		m("cluster.hedges", "count", hedges, "S (base of hedge_win_ratio)"),
		m("cluster.hedge_win_ratio", "ratio", ratio(wins, hedges), "S: wins / hedges"),
		m("cluster.breaker_opens", "count", d.gate("rcagate_breaker_transitions_total", "rcagate_breaker_transitions_total", map[string]string{"to": "open"}), "S"),
		m("cluster.node_share_max", "ratio", d.nodeShareMax(), "S: largest node share of forwards"),
		m("runtime.gc_pause_ms", "ms", d.node("rcaserve_gc_pause_seconds_total", "rcaserve_gc_pause_seconds_total", nil)*1e3, "S, summed over nodes"),
		m("runtime.heap_mb", "MB", d.nodeEnd("rcaserve_heap_bytes")/1e6, "S at window end, summed over nodes"),
		m("runtime.goroutines", "count", d.nodeEnd("rcaserve_goroutines"), "S at window end, summed over nodes"),
		m("unattributed_us", "us", tracedP50*1e3-attributed, "traced median minus the request-path layers"),
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// nonzero is v where the measured base exists and 0 where it does not
// (a workload without the layer).
func nonzero(base, v float64) float64 {
	if base == 0 {
		return 0
	}
	return v
}
