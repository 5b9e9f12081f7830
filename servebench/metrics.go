package main

// metricDef names one reported metric. The end-to-end list is what a run
// with --trace 0 prints; the per-layer list what a run with --trace 1
// prints. Both must match BENCHMARK.json (see metrics_test.go); which
// end-to-end metric each per-layer one should move is in README.md.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"sat_rps", "1/s", "higher"},
	{"lat_p50_ms", "ms", "lower"},
	{"lat_p90_ms", "ms", "lower"},
	{"word_acc", "frac", "higher"},
	{"sel_acc", "frac", "higher"},
	{"payload_B", "B", "lower"},
	{"sim_lat_ms", "ms", "lower"},
	{"wire_B_per_msg", "B", "lower"},
	{"rss_mb", "MB", "lower"},
}

var perLayer = []metricDef{
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"loadgen.host_speed", "frac", "higher"},
	{"client.lat_p99_ms", "ms", "lower"},
	{"rpc.overhead_p50_ms", "ms", "lower"},
	{"rpc.req_frame_B", "B", "lower"},
	{"rpc.resp_frame_B", "B", "lower"},
	{"rpc.frame_codec_us", "us", "lower"},
	{"edged.service_p50_ms", "ms", "lower"},
	{"edged.service_p99_ms", "ms", "lower"},
	{"edged.queue_wait_p99_ms", "ms", "lower"},
	{"edged.shed", "count", "lower"},
	{"core.select_us_p50", "us", "lower"},
	{"core.acquire_us_p50", "us", "lower"},
	{"core.encode_us_p50", "us", "lower"},
	{"core.channel_us_p50", "us", "lower"},
	{"core.decode_us_p50", "us", "lower"},
	{"core.mismatch_us_p50", "us", "lower"},
	{"core.update_ms_p50", "ms", "lower"},
	{"core.update_ms_p99", "ms", "lower"},
	{"core.transmit_us_p50", "us", "lower"},
	{"core.transmit_us_p99", "us", "lower"},
	{"core.stage_sum_ratio", "frac", "higher"},
	{"core.replica_overhead", "ratio", "lower"},
	{"semantic.encode_ns_per_tok", "ns/tok", "lower"},
	{"semantic.decode_ns_per_tok", "ns/tok", "lower"},
	{"channel.symbols_per_msg", "count", "lower"},
	{"fl.updates", "count", "lower"},
	{"fl.update_req_frac", "frac", "lower"},
	{"fl.update_B", "B", "lower"},
	{"fl.update_lat_p50_ms", "ms", "lower"},
	{"fl.sync_B_per_msg", "B", "lower"},
	{"cache.sender_hit_ratio", "frac", "higher"},
	{"cache.evictions", "count", "lower"},
	{"cache.resident_models", "count", "higher"},
	{"edge.individual_share", "frac", "higher"},
	{"edge.clones", "count", "lower"},
	{"selection.correct_frac", "frac", "higher"},
	{"mesh.move_ms_p50", "ms", "lower"},
	{"mesh.move_ms_p99", "ms", "lower"},
	{"mesh.handovers", "count", "lower"},
	{"mesh.migrated_B", "B", "lower"},
	{"mesh.neighbor_hits", "count", "higher"},
	{"mesh.origin_fetches", "count", "lower"},
	{"mesh.rerouted", "count", "lower"},
	{"setup.pretrain_s", "s", "lower"},
}

// metricValue is one reported number with its unit.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final line of a run's standard output.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}
