#include "data/code_column.h"

#include <atomic>

namespace metaleak {

namespace {

// Floor override as the underlying byte width; 0 = none. Relaxed atomics
// are enough — overrides are installed between phases, never mid-build.
std::atomic<uint8_t> g_width_floor{0};

}  // namespace

const char* CodeWidthName(CodeWidth width) {
  switch (width) {
    case CodeWidth::kU8:
      return "u8";
    case CodeWidth::kU16:
      return "u16";
    case CodeWidth::kU32:
      return "u32";
  }
  return "unknown";
}

CodeWidth CodeWidthForNumCodes(uint64_t num_codes) {
  CodeWidth natural;
  if (num_codes <= 0xFFull) {
    natural = CodeWidth::kU8;
  } else if (num_codes <= 0xFFFFull) {
    natural = CodeWidth::kU16;
  } else {
    natural = CodeWidth::kU32;
  }
  const uint8_t floor = g_width_floor.load(std::memory_order_relaxed);
  if (floor > static_cast<uint8_t>(natural)) {
    return static_cast<CodeWidth>(floor);
  }
  return natural;
}

void SetCodeWidthFloorOverride(CodeWidth floor) {
  g_width_floor.store(static_cast<uint8_t>(floor),
                      std::memory_order_relaxed);
}

void ClearCodeWidthFloorOverride() {
  g_width_floor.store(0, std::memory_order_relaxed);
}

CodeColumn CodeColumn::FromU32(const std::vector<uint32_t>& codes,
                               CodeWidth width) {
  CodeColumn out(width);
  out.reserve(codes.size());
  for (uint32_t code : codes) out.push_back(code);
  return out;
}

size_t CodeColumn::size() const {
  switch (width_) {
    case CodeWidth::kU8:
      return v8_.size();
    case CodeWidth::kU16:
      return v16_.size();
    default:
      return v32_.size();
  }
}

void CodeColumn::clear() {
  v8_.clear();
  v16_.clear();
  v32_.clear();
}

void CodeColumn::resize(size_t n) {
  switch (width_) {
    case CodeWidth::kU8:
      v8_.resize(n);
      return;
    case CodeWidth::kU16:
      v16_.resize(n);
      return;
    default:
      v32_.resize(n);
      return;
  }
}

void CodeColumn::reserve(size_t n) {
  switch (width_) {
    case CodeWidth::kU8:
      v8_.reserve(n);
      return;
    case CodeWidth::kU16:
      v16_.reserve(n);
      return;
    default:
      v32_.reserve(n);
      return;
  }
}

void CodeColumn::assign(size_t n, uint32_t code) {
  if (code > CodeWidthSentinel(width_)) WidenTo(CodeWidthForNumCodes(code));
  switch (width_) {
    case CodeWidth::kU8:
      v8_.assign(n, static_cast<uint8_t>(code));
      return;
    case CodeWidth::kU16:
      v16_.assign(n, static_cast<uint16_t>(code));
      return;
    default:
      v32_.assign(n, code);
      return;
  }
}

void CodeColumn::set(size_t r, uint32_t code) {
  if (code > CodeWidthSentinel(width_)) {
    WidenTo(code > 0xFFFFu ? CodeWidth::kU32 : CodeWidth::kU16);
  }
  switch (width_) {
    case CodeWidth::kU8:
      v8_[r] = static_cast<uint8_t>(code);
      return;
    case CodeWidth::kU16:
      v16_[r] = static_cast<uint16_t>(code);
      return;
    default:
      v32_[r] = code;
      return;
  }
}

void CodeColumn::push_back(uint32_t code) {
  if (code > CodeWidthSentinel(width_)) {
    WidenTo(code > 0xFFFFu ? CodeWidth::kU32 : CodeWidth::kU16);
  }
  switch (width_) {
    case CodeWidth::kU8:
      v8_.push_back(static_cast<uint8_t>(code));
      return;
    case CodeWidth::kU16:
      v16_.push_back(static_cast<uint16_t>(code));
      return;
    default:
      v32_.push_back(code);
      return;
  }
}

void CodeColumn::WidenTo(CodeWidth width) {
  if (width == width_) return;
  METALEAK_DCHECK(static_cast<uint8_t>(width) >
                  static_cast<uint8_t>(width_));
  const size_t n = size();
  if (width == CodeWidth::kU16) {
    v16_.resize(n);
    for (size_t r = 0; r < n; ++r) v16_[r] = v8_[r];
    v8_.clear();
    v8_.shrink_to_fit();
  } else {
    v32_.resize(n);
    if (width_ == CodeWidth::kU8) {
      for (size_t r = 0; r < n; ++r) v32_[r] = v8_[r];
      v8_.clear();
      v8_.shrink_to_fit();
    } else {
      for (size_t r = 0; r < n; ++r) v32_[r] = v16_[r];
      v16_.clear();
      v16_.shrink_to_fit();
    }
  }
  width_ = width;
}

void CodeColumn::Reset(CodeWidth width) {
  clear();
  v8_.shrink_to_fit();
  v16_.shrink_to_fit();
  v32_.shrink_to_fit();
  width_ = width;
}

CodeColumnView CodeColumn::view() const {
  CodeColumnView out;
  out.width = width_;
  switch (width_) {
    case CodeWidth::kU8:
      out.data = v8_.data();
      out.size = v8_.size();
      break;
    case CodeWidth::kU16:
      out.data = v16_.data();
      out.size = v16_.size();
      break;
    default:
      out.data = v32_.data();
      out.size = v32_.size();
      break;
  }
  return out;
}

std::vector<uint32_t> CodeColumn::ToU32() const {
  if (width_ == CodeWidth::kU32) return v32_;
  const size_t n = size();
  std::vector<uint32_t> out(n);
  const CodeColumnView v = view();
  v.With([&](const auto* codes) {
    for (size_t r = 0; r < n; ++r) out[r] = codes[r];
  });
  return out;
}

bool CodeColumn::operator==(const CodeColumn& other) const {
  const size_t n = size();
  if (n != other.size()) return false;
  const CodeColumnView a = view();
  const CodeColumnView b = other.view();
  for (size_t r = 0; r < n; ++r) {
    if (a.at(r) != b.at(r)) return false;
  }
  return true;
}

// --- Width-dispatched kernel wrappers ------------------------------------

size_t CountEqualCodes(SimdLevel level, const CodeColumnView& a,
                       const CodeColumnView& b) {
  METALEAK_DCHECK(a.size == b.size);
  if (a.width == b.width) {
    switch (a.width) {
      case CodeWidth::kU8:
        return CountEqualU8(level, a.u8(), b.u8(), a.size);
      case CodeWidth::kU16:
        return CountEqualU16(level, a.u16(), b.u16(), a.size);
      default:
        return CountEqualU32(level, a.u32(), b.u32(), a.size);
    }
  }
  size_t count = 0;
  for (size_t r = 0; r < a.size; ++r) count += a.at(r) == b.at(r);
  return count;
}

void EpsilonBallMseCodedInto(SimdLevel level, const double* real,
                             const CodeColumnView& codes,
                             const double* code_numeric, double eps,
                             EpsilonBallStats* stats) {
  codes.With([&](const auto* ptr) {
    EpsilonBallMseCodedInto(level, real, ptr, code_numeric, codes.size, eps,
                            stats);
  });
}

void HistogramCodes(const CodeColumnView& codes, uint32_t* counts) {
  codes.With([&](const auto* p) {
    for (size_t r = 0; r < codes.size; ++r) ++counts[p[r]];
  });
}

}  // namespace metaleak
