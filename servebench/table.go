package main

import (
	"fmt"
	"io"
	"sort"

	"soundboost/internal/obs"
)

// row is one blocking-path row of the layer table: the summed self time
// of its spans, per flight or per chunk.
type row struct {
	metric   string
	spans    []string
	perChunk bool
}

// rows are the blocking-path rows. With the residual they add up to the
// traced sessions' wall time.
var rows = []row{
	{"fleet.gateway_open_close_s_per_flight", []string{"gateway.create", "gateway.report"}, false},
	{"fleet.gateway_self_s_per_chunk", []string{"gateway.frames"}, true},
	{"fleet.forward_open_close_s_per_flight", []string{"fleet.forward.create", "fleet.forward.report"}, false},
	{"fleet.forward_s_per_chunk", []string{"fleet.forward.frames"}, true},
	{"fleet.replicate_s_per_chunk", []string{"fleet.replicate"}, true},
	{"server.create_s", []string{"server.create"}, false},
	{"server.frames_s_per_chunk", []string{"server.frames"}, true},
	{"server.follower_append_s_per_chunk", []string{"server.follower_append"}, true},
	{"server.report_wait_s", []string{"server.report"}, false},
	{"server.flights_s", []string{"server.flights"}, false},
	{"api.decode_s_per_flight", []string{"api.decode"}, false},
	{"journal.append_s_per_chunk", []string{"journal.append"}, true},
	{"mavbus.publish_s_per_flight", []string{"mavbus.publish"}, false},
	{"dataset.load_s_per_flight", []string{"dataset.load"}, false},
	{"core.triage_s_per_flight", []string{"core.analyze"}, false},
	{"core.imu_detect_s_per_flight", []string{"core.imu_detect"}, false},
	{"core.gps_detect_s_per_flight", []string{"core.gps_detect"}, false},
	{"api.report_encode_s_per_flight", []string{"api.report_encode"}, false},
}

// layers links the traced spans, grafts the component replay under
// them, and reports the per-layer metrics.
func (b *bench) layers(rep *report, ld load, spans []Span, before, after obs.Snapshot,
	usage journalUsage, overhead float64) error {
	traced := map[string]*session{}
	var names []string
	chunks := 0
	wire := 0
	for _, s := range ld.sessions {
		traced[s.name] = s
		names = append(names, s.name)
		chunks += len(s.chunks)
		wire += s.bytes
	}
	sort.Strings(names)
	kept := spans[:0]
	for _, s := range spans {
		if traced[s.Trace] != nil {
			kept = append(kept, s)
		}
	}
	spans = kept
	linkByContainment(spans)
	byTrace := map[string][]int{}
	for i, s := range spans {
		byTrace[s.Trace] = append(byTrace[s.Trace], i)
	}

	r, err := newReplayer(b.l, b.dir)
	if err != nil {
		return err
	}
	var k kernels
	for _, name := range names {
		if err := r.session(&spans, byTrace[name], traced[name], b.workload, &k); err != nil {
			return err
		}
	}
	tab, err := buildTable(spans)
	if err != nil {
		return err
	}

	f := float64(len(names))
	c := float64(chunks)
	counter := func(name string) float64 { return float64(after.Counters[name] - before.Counters[name]) }
	timerCount := func(name string) float64 { return float64(after.Timers[name].Count - before.Timers[name].Count) }

	listed := map[string]bool{}
	for _, rw := range rows {
		v := 0.0
		for _, sp := range rw.spans {
			v += tab.Self[sp]
			listed[sp] = true
		}
		if rw.perChunk {
			v /= c
		} else {
			v /= f
		}
		rep.add(rw.metric, v, "s")
	}
	other := 0.0
	for name, v := range tab.Self {
		if !listed[name] {
			other += v
			rep.note("span %q has no row of its own; counted in other_s_per_flight", name)
		}
	}
	rep.add("other_s_per_flight", other/f, "s")
	rep.add("residual_s_per_flight", tab.Residual/f, "s")
	rep.add("wall_s_per_flight", tab.Wall/f, "s")
	rep.add("replay_overflow_s_per_flight", tab.Overflow/f, "s")
	rep.add("negative_residual_flights", float64(tab.NegativeFlights), "count")
	rep.note("layer table over %d traced flights, %d chunks: rows %.6f s + residual %.6f s = wall %.6f s per flight",
		len(names), chunks, tab.Rows/f, tab.Residual/f, tab.Wall/f)
	if tab.Residual < 0 || tab.NegativeFlights > 0 {
		rep.note("NEGATIVE RESIDUAL on %d of %d flights: replayed calls overflowed their live spans by %.6f s per flight",
			tab.NegativeFlights, len(names), tab.Overflow/f)
	}

	rep.add("core.analyze_s_per_flight", tab.Incl["core.analyze"]/f, "s")
	rep.add("core.signature_s_per_flight", k.signature/f, "s")
	rep.add("nn.predict_s_per_flight", k.predict/f, "s")
	rep.add("stream.engine_s_per_flight", k.engine/f, "s")
	rep.add("api.wire_bytes_per_flight", float64(wire)/f, "bytes")
	rep.add("journal.bytes_per_flight", usage.perFlight(), "bytes")
	rep.add("mavbus.dropped", counter("mavbus.dropped"), "count")
	rep.add("stream.windows_per_flight", (counter("stream.windows.emitted")+counter("stream.windows.screened"))/f, "count")
	rep.add("stream.triage_fast_frac", counter("stream.triage.fast_reports")/f, "fraction")
	rep.add("core.triage_fast_frac", counter("core.rca.reports_fastpath")/f, "fraction")
	rep.add("nn.infer_calls_per_flight", counter("nn.infer.calls")/f, "count")
	rep.add("dsp.fft_calls_per_flight", timerCount("dsp.fft.transform")/f, "count")
	rep.add("dsp.plans_built", counter("dsp.fft.plans_built"), "count")
	rep.add("fleet.checkpoints_per_flight", counter("fleet.state.checkpoints")/f, "count")
	rep.add("fleet.replication_errors", counter("fleet.replication.errors"), "count")
	rep.add("trace_overhead_frac", overhead, "fraction")
	if d := counter("mavbus.dropped"); d > 0 {
		return fmt.Errorf("mavbus dropped %.0f message(s) during the traced run", d)
	}
	return nil
}

// print writes the human-readable report: notes, then every metric with
// its unit.
func (b *bench) print(w io.Writer, rep *report) {
	for _, n := range rep.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, n := range rep.names {
		m := rep.m[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, m.Value, m.Unit)
	}
}
