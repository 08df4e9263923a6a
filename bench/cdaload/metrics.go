package main

import (
	"math"
	"sort"
	"strings"
)

// metricDef names one metric; BENCHMARK.json carries the same names
// (a test keeps the two in step) plus the regression bounds.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the bounded metrics. Every workload reports all of
// them. Besides setup_s, which the benchmark contract requires and
// refRoundTripUS steadies, only numbers that repeat on a shared
// machine are bounded: on the box the benchmark was built on every
// timing of a turn moves by 15 to 45 % when the host changes gear,
// for ten minutes at a time, which no statistic inside one run can
// average away and no bound the contract allows (at most 0.25)
// survives (bench/README.md has the runs). So
// the turn's cost is bounded through what the servers made the device
// write and keep and the memory they needed, the answers through their
// annotations, and every timing of a turn is a per-layer diagnostic
// (server.*), to be compared with alternating parent/change pairs.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"write_bytes_per_turn", "bytes", "lower"},
	{"disk_bytes_per_turn", "bytes", "lower"},
	{"rss_mb", "MB", "lower"},
	{"annotated_answer_share", "share", "higher"},
}

// refRoundTripUS is the machine speed setup_s is stated at: the one
// at which a GET /health round trip between the harness and an idle
// cdaserver takes 150 µs, about what it takes on the box the benchmark
// was built on in a quiet minute. A set-up time is the one timing the
// benchmark contract makes a bounded metric whatever the box, and on a
// shared box every timing reads up to 40 % more from one ten minutes
// to the next; so each repetition takes the round trip beside its
// set-ups and scales their median by refRoundTripUS over the measured
// one. Over six pairs of same-commit sets the raw set-up time moved
// by up to 41 % between the sets and the round trip moved with it
// (bench/README.md, "Noise"); harness.setup_raw_s and
// harness.roundtrip_ref_us print both factors.
const refRoundTripUS = 150

// perLayer are single-layer diagnostics, black-box ones from the
// measured repetition and trace ones from the in-process replay.
var perLayer = []metricDef{
	{"server.turn_throughput_ops_s", "ops/s", "higher"},
	{"server.turn_p50_ms", "ms", "lower"},
	{"server.turn_p95_ms", "ms", "lower"},
	{"server.turn_p99_ms", "ms", "lower"},
	{"server.turn_p50_first_quarter_ms", "ms", "lower"},
	{"server.turn_p50_last_quarter_ms", "ms", "lower"},
	{"server.read_p50_ms", "ms", "lower"},
	{"server.read_p95_ms", "ms", "lower"},
	{"server.create_p50_ms", "ms", "lower"},
	{"server.recovery_s", "s", "lower"},
	{"server.peak_rss_mb", "MB", "lower"},
	{"server.http_roundtrip_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"admission.shed_share", "share", "lower"},
	{"admission.acquire_us", "us", "lower"},
	{"core.respond_ms", "ms", "lower"},
	{"core.respond_discover_ms", "ms", "lower"},
	{"core.respond_describe_ms", "ms", "lower"},
	{"core.respond_analyze_ms", "ms", "lower"},
	{"core.respond_query_miss_ms", "ms", "lower"},
	{"core.respond_query_hit_ms", "ms", "lower"},
	{"core.respond_followup_ms", "ms", "lower"},
	{"core.abstained_share", "share", "lower"},
	{"core.degraded_share", "share", "lower"},
	{"core.clarification_share", "share", "lower"},
	{"core.mean_confidence", "share", "higher"},
	{"core.commit_data_ms", "ms", "lower"},
	{"optimizer.answer_cache_hit_share", "share", "higher"},
	{"dialogue.classify_us", "us", "lower"},
	{"catalog.search_us", "us", "lower"},
	{"nl2sql.translate_ms", "ms", "lower"},
	{"sqldb.exec_ms", "ms", "lower"},
	{"sessionstore.get_us", "us", "lower"},
	{"sessionstore.wal_commit_ms", "ms", "lower"},
	{"sessionstore.page_read_us", "us", "lower"},
	{"sessionstore.asof_ms", "ms", "lower"},
	{"sessionstore.recover_ms", "ms", "lower"},
	{"sessionstore.wal_bytes_per_turn", "bytes", "lower"},
	{"vstore.session_commit_ms", "ms", "lower"},
	{"vstore.chunks_per_turn", "count", "lower"},
	{"vstore.pack_bytes_per_turn", "bytes", "lower"},
	{"vstore.roots_bytes_per_turn", "bytes", "lower"},
	{"cluster.route_ms", "ms", "lower"},
	{"cluster.ship_ms", "ms", "lower"},
	{"cluster.replica_lag_records", "count", "lower"},
	{"cluster.replica_disk_bytes_per_turn", "bytes", "lower"},
	{"trace.overhead_share", "share", "lower"},
	{"env.fsync_probe_us", "us", "lower"},
	{"harness.prepopulate_s", "s", "lower"},
	{"harness.setup_raw_s", "s", "lower"},
	{"harness.roundtrip_ref_us", "us", "lower"},
	{"harness.failed_ops_share", "share", "lower"},
}

// percentile is the nearest-rank p-th percentile; 0 on no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median of a few repetition values (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// metricValue is one reported number: the median of Reps, one value
// per repetition, or for a latency percentile the percentile of the
// Samples latencies of all repetitions together.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples int       `json:"samples,omitempty"`
	Reps    []float64 `json:"reps,omitempty"`
}

// sampled is a per-repetition value with the number of samples
// behind it.
type sampled struct {
	v float64
	n int
}

func askMS(asks []askSample) []float64 {
	out := make([]float64, len(asks))
	for i, a := range asks {
		out[i] = a.ms
	}
	return out
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// endToEnd computes the repetition's end-to-end metrics.
func (r *repResult) endToEnd() map[string]sampled {
	acks := r.acks()
	queries, good := 0, 0
	for _, a := range acks {
		if a.Class == classQuery || a.Class == classHead || a.Class == classFollowUp {
			queries++
			if annotated(a.Resp) {
				good++
			}
		}
	}
	asks := len(r.log.asks)
	return map[string]sampled{
		"setup_s":                {ratio(median(r.setups)*refRoundTripUS, median(r.refUS)), len(r.setups)},
		"write_bytes_per_turn":   {ratio(r.writeBytes, float64(asks)), asks},
		"disk_bytes_per_turn":    {ratio(float64(r.diskBytes), float64(len(acks))), len(acks)},
		"rss_mb":                 {median(r.rssMB), len(r.rssMB)},
		"annotated_answer_share": {ratio(float64(good), float64(queries)), queries},
	}
}

// blackBox computes the per-layer metrics visible from outside the
// servers — responses, /healthz, /proc and file sizes — that are one
// value per repetition.
func (r *repResult) blackBox() map[string]float64 {
	acks := r.log.acks
	var abstained, degraded, clarified, conf float64
	for _, a := range acks {
		if a.Resp.Abstained {
			abstained++
		}
		if a.Resp.Degraded != "" {
			degraded++
		}
		if a.Resp.Clarification != "" {
			clarified++
		}
		conf += a.Resp.Confidence
	}
	var wal int64
	for name, n := range r.files {
		if strings.HasPrefix(name, "shard-") {
			wal += n
		}
	}
	turns := float64(len(r.acks()))
	n := float64(len(acks))
	return map[string]float64{
		"server.turn_throughput_ops_s":        ratio(n, r.wallS),
		"server.recovery_s":                   r.recoveryS,
		"server.peak_rss_mb":                  r.peakRSSMB,
		"harness.prepopulate_s":               r.prepopS,
		"harness.setup_raw_s":                 median(r.setups),
		"harness.roundtrip_ref_us":            median(r.refUS),
		"server.http_roundtrip_us":            r.httpRoundtripUS,
		"admission.shed_share":                ratio(float64(r.log.shed), float64(r.log.attempted)),
		"core.abstained_share":                ratio(abstained, n),
		"core.degraded_share":                 ratio(degraded, n),
		"core.clarification_share":            ratio(clarified, n),
		"core.mean_confidence":                ratio(conf, n),
		"sessionstore.wal_bytes_per_turn":     ratio(float64(wal), turns),
		"vstore.pack_bytes_per_turn":          ratio(float64(r.files["chunks.pack"]), turns),
		"vstore.roots_bytes_per_turn":         ratio(float64(r.files["roots.json"]), turns),
		"cluster.replica_lag_records":         float64(r.replicaLag),
		"cluster.replica_disk_bytes_per_turn": ratio(float64(r.replicaDiskBytes), turns),
		"harness.failed_ops_share":            ratio(float64(r.log.failed), float64(r.log.attempted)),
	}
}

// latencies computes the latency percentiles over the samples of all
// repetitions together, so that the reported percentile has samples
// beyond it: a repetition alone has 40 page reads, two beyond its p95.
func latencies(reps []*repResult) map[string]sampled {
	var asks, first, last, reads, creates []float64
	for _, r := range reps {
		ms := askMS(r.log.asks)
		q := len(ms) / 4
		asks = append(asks, ms...)
		first = append(first, ms[:q]...)
		last = append(last, ms[len(ms)-q:]...)
		reads = append(reads, r.log.readsMS...)
		if r.pre != nil {
			creates = append(creates, r.pre.createsMS...)
		}
		creates = append(creates, r.log.createsMS...)
	}
	return map[string]sampled{
		"server.turn_p50_ms":               {percentile(asks, 50), len(asks)},
		"server.turn_p95_ms":               {percentile(asks, 95), len(asks)},
		"server.turn_p99_ms":               {percentile(asks, 99), len(asks)},
		"server.turn_p50_first_quarter_ms": {percentile(first, 50), len(first)},
		"server.turn_p50_last_quarter_ms":  {percentile(last, 50), len(last)},
		"server.read_p50_ms":               {percentile(reads, 50), len(reads)},
		"server.read_p95_ms":               {percentile(reads, 95), len(reads)},
		"server.create_p50_ms":             {percentile(creates, 50), len(creates)},
	}
}
