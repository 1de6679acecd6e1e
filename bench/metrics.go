package main

// metricDef names one reported metric. These two tables are the single
// source of the names and units the command prints; BENCHMARK.json repeats
// them (with direction and bound) and a unit test holds the two together.
type metricDef struct {
	name, unit string
	// bound is the share of the median by which an end-to-end metric may
	// worsen before a change counts as a regression; layers have none.
	bound float64
}

// endToEnd is what a user of the system sees, the same eight for every
// workload. README.md defines each.
var endToEnd = []metricDef{
	{"throughput_mbps", "MB/s", 0.25},
	{"latency_p50_ms", "ms", 0.25},
	{"latency_p90_ms", "ms", 0.25},
	{"cpu_s_per_gb", "s/GB", 0.25},
	{"peak_rss_mb", "MB", 0.25},
	{"stored_bytes_per_raw_byte", "ratio", 0.005},
	{"psnr_db", "dB", 0.002},
	{"setup_s", "s", 0.25},
}

// perLayer is what the traced run reports: module "." metric.
var perLayer = []metricDef{
	{"core.compress_auto_mbps", "MB/s", 0},
	{"core.compress_fixed_mbps", "MB/s", 0},
	{"core.tuner_share_field", "ratio", 0},
	{"core.tuner_share_brick", "ratio", 0},
	{"core.decompress_mbps", "MB/s", 0},
	{"core.decompress_level2_mbps", "MB/s", 0},
	{"core.compress_alloc_bytes_per_point", "B/pt", 0},
	{"core.decompress_alloc_bytes_per_point", "B/pt", 0},
	{"interp.levelpass_encode_mpts", "Mpt/s", 0},
	{"interp.levelpass_decode_mpts", "Mpt/s", 0},
	{"quant.quantize_mpts", "Mpt/s", 0},
	{"huffman.encode_mbps", "MB/s", 0},
	{"huffman.decode_mbps", "MB/s", 0},
	{"huffman.build_table_ms", "ms", 0},
	{"huffman.bits_per_symbol", "bit", 0},
	{"container.encode_mbps", "MB/s", 0},
	{"container.decode_mbps", "MB/s", 0},
	{"container.lossless_ratio", "ratio", 0},
	{"qoz.encode_mbps", "MB/s", 0},
	{"qoz.decode_mbps", "MB/s", 0},
	{"qoz.encode_f64_mbps", "MB/s", 0},
	{"qoz.decode_f64_mbps", "MB/s", 0},
	{"qoz.stream_vs_core_time_ratio", "ratio", 0},
	{"qoz.stream_vs_core_size_ratio", "ratio", 0},
	{"store.write_mbps", "MB/s", 0},
	{"store.write_f64_mbps", "MB/s", 0},
	{"store.append_mbps", "MB/s", 0},
	{"store.write_vs_codec_time_ratio", "ratio", 0},
	{"store.index_bytes_per_brick", "B", 0},
	{"store.open_ms", "ms", 0},
	{"store.read_cold_mbps", "MB/s", 0},
	{"store.read_cached_mbps", "MB/s", 0},
	{"store.read_cached_allocs_per_op", "count", 0},
	{"store.cache_hit_ratio", "ratio", 0},
	{"store.decode_amplification", "ratio", 0},
	{"store.stage_fetch_ms_per_brick", "ms", 0},
	{"store.stage_decode_ms_per_brick", "ms", 0},
	{"store.read_level2_mbps", "MB/s", 0},
	{"store.level2_fetched_bytes_ratio", "ratio", 0},
	{"store.query_pruned_ms", "ms", 0},
	{"store.query_scan_ms", "ms", 0},
	{"store.query_pruned_ratio", "ratio", 0},
	{"qozd.ttfb_ms_p50", "ms", 0},
	{"qozd.body_ms_p50", "ms", 0},
	{"qozd.handler_ms_mean", "ms", 0},
	{"qozd.stage_decode_share", "ratio", 0},
	{"qozd.stage_fetch_share", "ratio", 0},
	{"qozd.self_share", "ratio", 0},
	{"qozd.client_gap_ms_mean", "ms", 0},
	{"qozd.flight_coalesced_ratio", "ratio", 0},
	{"qozd.rejected_total", "count", 0},
	{"qozd.shard_hot_ms_p50", "ms", 0},
	{"qozd.cpu_s_per_gb_shard", "s/GB", 0},
	{"qozd.cpu_s_per_gb_gateway", "s/GB", 0},
	{"cluster.subreads_per_request", "count", 0},
	{"cluster.client_fanout_ms_p50", "ms", 0},
	{"cluster.shard_time_share", "ratio", 0},
	{"cluster.gateway_self_ms_mean", "ms", 0},
	{"cluster.retries_total", "count", 0},
	{"cluster.shard_errors_total", "count", 0},
	{"obs.metrics_scrape_ms", "ms", 0},
	{"loadgen.ops_per_s", "1/s", 0},
	{"loadgen.latency_p99_ms", "ms", 0},
	{"loadgen.latency_max_ms", "ms", 0},
	{"loadgen.epoch_spread", "ratio", 0},
	{"loadgen.trace_overhead_ratio", "ratio", 0},
	{"machine.calib_int_mops", "Mop/s", 0},
	{"machine.calib_mem_mbps", "MB/s", 0},
	{"machine.calib_drift", "ratio", 0},
	{"machine.index", "ratio", 0},
}
