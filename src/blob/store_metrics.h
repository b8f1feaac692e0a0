#ifndef TBM_BLOB_STORE_METRICS_H_
#define TBM_BLOB_STORE_METRICS_H_

#include "obs/metrics.h"

namespace tbm::blob_internal {

/// Process-wide blob I/O metrics, shared by the memory and file stores;
/// byte and latency instruments aggregate across both.
struct StoreMetrics {
  obs::Counter* reads;
  obs::Counter* bytes_read;
  obs::Counter* appends;
  obs::Counter* bytes_written;
  obs::Histogram* read_us;
  obs::Histogram* append_us;

  static const StoreMetrics& Get() {
    static const StoreMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return StoreMetrics{registry.counter("blob.reads"),
                          registry.counter("blob.bytes_read"),
                          registry.counter("blob.appends"),
                          registry.counter("blob.bytes_written"),
                          registry.histogram("blob.read_us"),
                          registry.histogram("blob.append_us")};
    }();
    return metrics;
  }
};

/// Instruments of the content-addressed tier. Push/pull throughput is
/// derivable from the byte counters and latency histograms; the dedup
/// ratio from logical vs stored bytes (gauges maintained by the
/// store's ledger).
struct CasMetrics {
  obs::Counter* pushes;             ///< Finished pushes (incl. dedup hits).
  obs::Counter* push_bytes;         ///< Bytes streamed through push.
  obs::Counter* dedup_hits;         ///< Pushes that matched an existing hash.
  obs::Counter* dedup_bytes_saved;  ///< Bytes NOT stored thanks to dedup.
  obs::Counter* pulls;              ///< Read calls served.
  obs::Counter* pull_bytes;         ///< Bytes served by reads.
  obs::Counter* gc_swept;           ///< Blobs collected by sweeps.
  obs::Counter* gc_reclaimed_bytes; ///< Bytes reclaimed by sweeps.
  obs::Counter* gc_pins;            ///< Pushes that pinned a condemned hash.
  obs::Gauge* logical_bytes;        ///< Sum of size × refcount.
  obs::Gauge* stored_bytes;         ///< Sum of size (each hash once).
  obs::Histogram* push_us;          ///< Per-finish latency.
  obs::Histogram* pull_us;          ///< Per-read latency.
  obs::Histogram* gc_pause_us;      ///< Locked (mutator-excluding) sweep time.

  static const CasMetrics& Get() {
    static const CasMetrics metrics = [] {
      auto& registry = obs::Registry::Global();
      return CasMetrics{registry.counter("cas.pushes"),
                        registry.counter("cas.push_bytes"),
                        registry.counter("cas.dedup_hits"),
                        registry.counter("cas.dedup_bytes_saved"),
                        registry.counter("cas.pulls"),
                        registry.counter("cas.pull_bytes"),
                        registry.counter("cas.gc_swept"),
                        registry.counter("cas.gc_reclaimed_bytes"),
                        registry.counter("cas.gc_pins"),
                        registry.gauge("cas.logical_bytes"),
                        registry.gauge("cas.stored_bytes"),
                        registry.histogram("cas.push_us"),
                        registry.histogram("cas.pull_us"),
                        registry.histogram("cas.gc_pause_us")};
    }();
    return metrics;
  }
};

}  // namespace tbm::blob_internal

#endif  // TBM_BLOB_STORE_METRICS_H_
