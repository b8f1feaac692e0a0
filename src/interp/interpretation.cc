#include "interp/interpretation.h"

#include <algorithm>

#include "base/macros.h"

namespace tbm {

uint64_t InterpretedObject::PayloadBytes() const {
  uint64_t total = 0;
  for (const ElementPlacement& e : elements) total += e.placement.length;
  return total;
}

int64_t InterpretedObject::EndTime() const {
  int64_t end = 0;
  for (const ElementPlacement& e : elements) {
    end = std::max(end, e.start + e.duration);
  }
  return end;
}

Status Interpretation::AddObject(InterpretedObject object) {
  for (const InterpretedObject& existing : objects_) {
    if (existing.name == object.name) {
      return Status::AlreadyExists("object \"" + object.name +
                                   "\" already in interpretation");
    }
  }
  for (size_t i = 0; i < object.elements.size(); ++i) {
    const ElementPlacement& e = object.elements[i];
    if (e.element_number != static_cast<int64_t>(i)) {
      return Status::InvalidArgument(
          "object \"" + object.name + "\": element numbers must be 0..n-1 " +
          "in order; position " + std::to_string(i) + " has number " +
          std::to_string(e.element_number));
    }
    if (e.duration < 0) {
      return Status::InvalidArgument("object \"" + object.name +
                                     "\": negative duration at element " +
                                     std::to_string(i));
    }
    if (i > 0 && e.start < object.elements[i - 1].start) {
      return Status::InvalidArgument(
          "object \"" + object.name + "\": start times must be " +
          "non-decreasing (Def. 3); element " + std::to_string(i));
    }
  }
  objects_.push_back(std::move(object));
  return Status::OK();
}

Result<const InterpretedObject*> Interpretation::FindObject(
    const std::string& name) const {
  for (const InterpretedObject& object : objects_) {
    if (object.name == name) return &object;
  }
  return Status::NotFound("no object \"" + name + "\" in interpretation");
}

Status Interpretation::ValidateAgainstBlobSize(uint64_t blob_size) const {
  for (const InterpretedObject& object : objects_) {
    for (const ElementPlacement& e : object.elements) {
      if (e.placement.end() > blob_size) {
        return Status::OutOfRange(
            "object \"" + object.name + "\" element " +
            std::to_string(e.element_number) + " placement [" +
            std::to_string(e.placement.offset) + ", " +
            std::to_string(e.placement.end()) + ") exceeds BLOB size " +
            std::to_string(blob_size));
      }
    }
  }
  return Status::OK();
}

namespace {

Result<StreamElement> MakeElement(const BlobStore& store, BlobId blob,
                                  const ElementPlacement& placement) {
  StreamElement element;
  TBM_ASSIGN_OR_RETURN(element.data, store.Read(blob, placement.placement));
  element.start = placement.start;
  element.duration = placement.duration;
  element.descriptor = placement.descriptor;
  return element;
}

}  // namespace

Result<StreamElement> Interpretation::ReadElement(
    const BlobStore& store, const std::string& name,
    int64_t element_number) const {
  TBM_ASSIGN_OR_RETURN(const InterpretedObject* object, FindObject(name));
  if (element_number < 0 ||
      element_number >= static_cast<int64_t>(object->elements.size())) {
    return Status::OutOfRange("element number " +
                              std::to_string(element_number) +
                              " out of range for \"" + name + "\"");
  }
  return MakeElement(store, blob_, object->elements[element_number]);
}

Result<Interpretation> Interpretation::Restrict(
    const std::vector<std::string>& names) const {
  Interpretation view(blob_);
  for (const std::string& name : names) {
    TBM_ASSIGN_OR_RETURN(const InterpretedObject* object, FindObject(name));
    TBM_RETURN_IF_ERROR(view.AddObject(*object));
  }
  return view;
}

double Interpretation::Coverage(uint64_t blob_size) const {
  if (blob_size == 0) return 0.0;
  uint64_t covered = 0;
  for (const InterpretedObject& object : objects_) {
    covered += object.PayloadBytes();
  }
  return static_cast<double>(covered) / static_cast<double>(blob_size);
}

void Interpretation::Serialize(BinaryWriter* writer) const {
  writer->WriteU64(blob_);
  writer->WriteVarU64(objects_.size());
  for (const InterpretedObject& object : objects_) {
    writer->WriteString(object.name);
    object.descriptor.Serialize(writer);
    writer->WriteVarI64(object.time_system.frequency().num());
    writer->WriteVarI64(object.time_system.frequency().den());
    writer->WriteVarU64(object.elements.size());
    for (const ElementPlacement& e : object.elements) {
      writer->WriteVarI64(e.start);
      writer->WriteVarI64(e.duration);
      writer->WriteVarU64(e.placement.offset);
      writer->WriteVarU64(e.placement.length);
      e.descriptor.Serialize(writer);
    }
  }
}

Result<Interpretation> Interpretation::Deserialize(BinaryReader* reader) {
  Interpretation interp;
  TBM_ASSIGN_OR_RETURN(interp.blob_, reader->ReadU64());
  TBM_ASSIGN_OR_RETURN(uint64_t object_count, reader->ReadVarU64());
  for (uint64_t i = 0; i < object_count; ++i) {
    InterpretedObject object;
    TBM_ASSIGN_OR_RETURN(object.name, reader->ReadString());
    TBM_ASSIGN_OR_RETURN(object.descriptor,
                         MediaDescriptor::Deserialize(reader));
    TBM_ASSIGN_OR_RETURN(int64_t freq_num, reader->ReadVarI64());
    TBM_ASSIGN_OR_RETURN(int64_t freq_den, reader->ReadVarI64());
    if (freq_num <= 0 || freq_den <= 0) {
      return Status::Corruption("bad time-system frequency");
    }
    object.time_system = TimeSystem(Rational(freq_num, freq_den));
    TBM_ASSIGN_OR_RETURN(uint64_t element_count, reader->ReadVarU64());
    object.elements.reserve(element_count);
    for (uint64_t j = 0; j < element_count; ++j) {
      ElementPlacement e;
      e.element_number = static_cast<int64_t>(j);
      TBM_ASSIGN_OR_RETURN(e.start, reader->ReadVarI64());
      TBM_ASSIGN_OR_RETURN(e.duration, reader->ReadVarI64());
      TBM_ASSIGN_OR_RETURN(e.placement.offset, reader->ReadVarU64());
      TBM_ASSIGN_OR_RETURN(e.placement.length, reader->ReadVarU64());
      // Catalogs come off disk: reject placements whose offset+length
      // wraps uint64 before they can alias the wrong bytes.
      TBM_RETURN_IF_ERROR(e.placement.Validate());
      TBM_ASSIGN_OR_RETURN(e.descriptor, AttrMap::Deserialize(reader));
      object.elements.push_back(std::move(e));
    }
    TBM_RETURN_IF_ERROR(interp.AddObject(std::move(object)));
  }
  return interp;
}

}  // namespace tbm
