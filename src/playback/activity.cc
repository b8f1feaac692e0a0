#include "playback/activity.h"

#include <utility>

#include "base/macros.h"

namespace tbm {

Result<StreamElement> StreamSource::Next() {
  if (position_ >= stream_->size()) {
    return Status::NotFound("end of flow");
  }
  return stream_->at(position_++);
}

Result<StreamElement> TransformActivity::Next() {
  TBM_ASSIGN_OR_RETURN(StreamElement element, upstream_->Next());
  return fn_(std::move(element));
}

Result<StreamElement> SpanFilterActivity::Next() {
  while (true) {
    TBM_ASSIGN_OR_RETURN(StreamElement element, upstream_->Next());
    bool hit = element.duration == 0
                   ? span_.Contains(element.start)
                   : element.span().Overlaps(span_);
    if (hit) return element;
    if (element.start >= span_.end()) {
      return Status::NotFound("end of flow");  // Past the span: done.
    }
  }
}

Status MergeActivity::Fill() {
  if (!pending_a_.has_value() && !a_done_) {
    auto element = a_->Next();
    if (element.ok()) {
      pending_a_ = std::move(*element);
    } else if (element.status().IsNotFound()) {
      a_done_ = true;
    } else {
      return element.status();
    }
  }
  if (!pending_b_.has_value() && !b_done_) {
    auto element = b_->Next();
    if (element.ok()) {
      pending_b_ = std::move(*element);
    } else if (element.status().IsNotFound()) {
      b_done_ = true;
    } else {
      return element.status();
    }
  }
  return Status::OK();
}

Result<StreamElement> MergeActivity::Next() {
  if (!(a_->time_system() == b_->time_system())) {
    return Status::InvalidArgument(
        "merge requires flows in the same time system");
  }
  TBM_RETURN_IF_ERROR(Fill());
  if (!pending_a_.has_value() && !pending_b_.has_value()) {
    return Status::NotFound("end of flow");
  }
  bool take_a;
  if (!pending_a_.has_value()) {
    take_a = false;
  } else if (!pending_b_.has_value()) {
    take_a = true;
  } else {
    take_a = pending_a_->start <= pending_b_->start;
  }
  StreamElement out;
  if (take_a) {
    out = std::move(*pending_a_);
    pending_a_.reset();
  } else {
    out = std::move(*pending_b_);
    pending_b_.reset();
  }
  return out;
}

Result<TimedStream> RunToStream(Activity* activity, FlowStats* stats) {
  TimedStream stream(activity->descriptor(), activity->time_system());
  while (true) {
    auto element = activity->Next();
    if (!element.ok()) {
      if (element.status().IsNotFound()) break;
      return element.status();
    }
    if (stats != nullptr) {
      ++stats->elements;
      stats->bytes += element->data.size();
    }
    TBM_RETURN_IF_ERROR(stream.Append(std::move(*element)));
  }
  return stream;
}

Result<FlowStats> Drain(Activity* activity) {
  FlowStats stats;
  while (true) {
    auto element = activity->Next();
    if (!element.ok()) {
      if (element.status().IsNotFound()) break;
      return element.status();
    }
    ++stats.elements;
    stats.bytes += element->data.size();
  }
  return stats;
}

}  // namespace tbm
