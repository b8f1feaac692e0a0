#ifndef TBM_PLAYBACK_ACTIVITY_H_
#define TBM_PLAYBACK_ACTIVITY_H_

#include <functional>
#include <memory>
#include <optional>

#include "stream/timed_stream.h"

namespace tbm {

/// Activity-based stream processing.
///
/// The paper's conclusion (§6): "The notion of timed streams ... leads
/// to a perspective where database operations are viewed as extended
/// activities that produce, consume and transform flows of data. A
/// database architecture based on activities and their possible
/// interconnection is explored in [5]." This module implements that
/// architecture in miniature: pull-based activities over element
/// flows, composable into pipelines, with flow statistics.

/// A node in an activity graph: each call to Next() yields the next
/// stream element of the flow, or NotFound when the flow ends.
class Activity {
 public:
  virtual ~Activity() = default;

  /// The next element, or NotFound at end of flow. Other errors abort
  /// the flow.
  virtual Result<StreamElement> Next() = 0;

  /// Descriptor of the flow this activity produces.
  virtual const MediaDescriptor& descriptor() const = 0;
  virtual const TimeSystem& time_system() const = 0;
};

/// Produces a flow from an existing timed stream (the database "read"
/// end; Materialize + StreamSource is the "play" producer).
class StreamSource : public Activity {
 public:
  /// Does not take ownership; the stream must outlive the source.
  explicit StreamSource(const TimedStream* stream) : stream_(stream) {}

  Result<StreamElement> Next() override;
  const MediaDescriptor& descriptor() const override {
    return stream_->descriptor();
  }
  const TimeSystem& time_system() const override {
    return stream_->time_system();
  }

 private:
  const TimedStream* stream_;
  size_t position_ = 0;
};

/// Transforms a flow element-by-element (the "transform" activity —
/// e.g. decode, re-quantize, watermark). The function may change data
/// and descriptor but not ordering.
class TransformActivity : public Activity {
 public:
  using ElementFn = std::function<Result<StreamElement>(StreamElement)>;

  TransformActivity(std::unique_ptr<Activity> upstream, ElementFn fn)
      : upstream_(std::move(upstream)), fn_(std::move(fn)) {}

  Result<StreamElement> Next() override;
  const MediaDescriptor& descriptor() const override {
    return upstream_->descriptor();
  }
  const TimeSystem& time_system() const override {
    return upstream_->time_system();
  }

 private:
  std::unique_ptr<Activity> upstream_;
  ElementFn fn_;
};

/// Drops elements outside a time span (a streaming duration query).
class SpanFilterActivity : public Activity {
 public:
  SpanFilterActivity(std::unique_ptr<Activity> upstream, TickSpan span)
      : upstream_(std::move(upstream)), span_(span) {}

  Result<StreamElement> Next() override;
  const MediaDescriptor& descriptor() const override {
    return upstream_->descriptor();
  }
  const TimeSystem& time_system() const override {
    return upstream_->time_system();
  }

 private:
  std::unique_ptr<Activity> upstream_;
  TickSpan span_;
};

/// Interleaves two flows by start time (a streaming synchronizer —
/// the "combine" interconnection of [5]).
class MergeActivity : public Activity {
 public:
  /// Flows must share a time system; the merged descriptor is taken
  /// from `a`.
  MergeActivity(std::unique_ptr<Activity> a, std::unique_ptr<Activity> b)
      : a_(std::move(a)), b_(std::move(b)) {}

  Result<StreamElement> Next() override;
  const MediaDescriptor& descriptor() const override {
    return a_->descriptor();
  }
  const TimeSystem& time_system() const override {
    return a_->time_system();
  }

 private:
  Status Fill();

  std::unique_ptr<Activity> a_;
  std::unique_ptr<Activity> b_;
  std::optional<StreamElement> pending_a_;
  std::optional<StreamElement> pending_b_;
  bool a_done_ = false;
  bool b_done_ = false;
};

/// Flow statistics accumulated by RunToStream / Drain.
struct FlowStats {
  int64_t elements = 0;
  uint64_t bytes = 0;
};

/// Consumes a flow into a new timed stream (the "record" end).
Result<TimedStream> RunToStream(Activity* activity, FlowStats* stats = nullptr);

/// Consumes and discards a flow, returning statistics.
Result<FlowStats> Drain(Activity* activity);

}  // namespace tbm

#endif  // TBM_PLAYBACK_ACTIVITY_H_
