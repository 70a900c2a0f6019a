#include "operators/aggregator.h"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/macros.h"

namespace dfdb {

void Aggregator::ExactSum::Add(double d) {
  if (std::isnan(d)) {
    nan_ = true;
    return;
  }
  if (std::isinf(d)) {
    (d > 0 ? pos_inf_ : neg_inf_) = true;
    return;
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  const bool negative = (bits >> 63) != 0;
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  uint64_t mant = bits & ((uint64_t{1} << 52) - 1);
  // |d| = mant * 2^(shift - 1074): subnormals have shift 0, normals carry
  // the implicit bit.
  int shift = 0;
  if (biased != 0) {
    mant |= uint64_t{1} << 52;
    shift = biased - 1;
  }
  if (mant == 0) return;
  const int limb = shift / 64;
  const int off = shift % 64;
  // The 53-bit mantissa spans at most two limbs; carries ripple upward.
  uint64_t parts[2] = {mant << off, off == 0 ? 0 : mant >> (64 - off)};
  uint64_t carry = 0;
  for (int i = limb; i < kLimbs; ++i) {
    const uint64_t part = i - limb < 2 ? parts[i - limb] : 0;
    if (i - limb >= 2 && carry == 0) break;
    const uint64_t before = limbs_[i];
    if (!negative) {
      const uint64_t sum = before + part;
      const uint64_t out = sum + carry;
      carry = (sum < before || out < sum) ? 1 : 0;
      limbs_[i] = out;
    } else {
      const uint64_t diff = before - part;
      const uint64_t out = diff - carry;
      carry = (before < part || diff < carry) ? 1 : 0;
      limbs_[i] = out;
    }
  }
}

double Aggregator::ExactSum::Read() const {
  if (nan_ || (pos_inf_ && neg_inf_)) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  if (pos_inf_) return std::numeric_limits<double>::infinity();
  if (neg_inf_) return -std::numeric_limits<double>::infinity();
  uint64_t mag[kLimbs];
  std::memcpy(mag, limbs_, sizeof(mag));
  const bool negative = (mag[kLimbs - 1] >> 63) != 0;
  if (negative) {  // Two's-complement negate: invert, add one.
    uint64_t carry = 1;
    for (int i = 0; i < kLimbs; ++i) {
      mag[i] = ~mag[i] + carry;
      carry = (carry != 0 && mag[i] == 0) ? 1 : 0;
    }
  }
  int top = kLimbs - 1;
  while (top >= 0 && mag[top] == 0) --top;
  if (top < 0) return 0.0;
  // Highest set bit, in units of 2^-1074.
  const int p = top * 64 + 63 - __builtin_clzll(mag[top]);
  double result;
  if (p < 53) {
    // Fits the significand as is: exact (normal or subnormal).
    result = std::ldexp(static_cast<double>(mag[0]), -1074);
  } else {
    // The 64 bits ending at p, plus a sticky bit for everything below.
    const int lo = p - 63;
    uint64_t window;
    bool sticky = false;
    if (lo < 0) {
      window = mag[0] << (-lo);
    } else {
      const int limb = lo / 64;
      const int off = lo % 64;
      window = mag[limb] >> off;
      if (off != 0) window |= mag[limb + 1] << (64 - off);
      sticky = off != 0 && (mag[limb] & ((uint64_t{1} << off) - 1)) != 0;
      for (int i = 0; i < limb && !sticky; ++i) sticky = mag[i] != 0;
    }
    // Round the 64-bit window to 53 bits, to nearest, ties to even.
    uint64_t mant = window >> 11;
    const uint64_t rest = window & 0x7ff;
    constexpr uint64_t kHalf = 0x400;
    if (rest > kHalf || (rest == kHalf && (sticky || (mant & 1) != 0))) {
      ++mant;
    }
    result = std::ldexp(static_cast<double>(mant), p - 52 - 1074);
  }
  return negative ? -result : result;
}

StatusOr<Aggregator> Aggregator::Create(const Schema& input_schema,
                                        const Schema& output_schema,
                                        const std::vector<std::string>& group_by,
                                        std::vector<AggregateSpec> specs) {
  std::vector<int> group_indices;
  group_indices.reserve(group_by.size());
  for (const std::string& name : group_by) {
    DFDB_ASSIGN_OR_RETURN(int idx, input_schema.ColumnIndex(name));
    group_indices.push_back(idx);
  }
  std::vector<int> agg_indices;
  agg_indices.reserve(specs.size());
  for (const AggregateSpec& spec : specs) {
    if (spec.func == AggregateSpec::Func::kCount) {
      agg_indices.push_back(-1);
    } else {
      DFDB_ASSIGN_OR_RETURN(int idx, input_schema.ColumnIndex(spec.column));
      agg_indices.push_back(idx);
    }
  }
  return Aggregator(input_schema, output_schema, std::move(group_indices),
                    std::move(specs), std::move(agg_indices));
}

Status Aggregator::Consume(const Page& page) {
  for (int t = 0; t < page.num_tuples(); ++t) {
    TupleView view(&input_schema_, page.tuple(t));
    // Group key: raw bytes of the group columns in order.
    std::string key;
    for (int gi : group_indices_) {
      const Slice raw = view.GetRaw(gi);
      key.append(raw.data(), raw.size());
    }
    auto [it, inserted] = groups_.try_emplace(std::move(key));
    GroupState& state = it->second;
    if (inserted) {
      state.group_values.reserve(group_indices_.size());
      for (int gi : group_indices_) {
        DFDB_ASSIGN_OR_RETURN(Value v, view.GetValue(gi));
        state.group_values.push_back(std::move(v));
      }
      state.aggs.resize(specs_.size());
    }
    for (size_t s = 0; s < specs_.size(); ++s) {
      AggState& agg = state.aggs[s];
      agg.count++;
      if (agg_indices_[s] < 0) continue;  // COUNT needs no value.
      DFDB_ASSIGN_OR_RETURN(Value v, view.GetValue(agg_indices_[s]));
      switch (specs_[s].func) {
        case AggregateSpec::Func::kCount:
          break;
        case AggregateSpec::Func::kSum:
        case AggregateSpec::Func::kAvg: {
          if (v.type() == ColumnType::kInt32) {
            agg.sum_int += v.as_int32();
          } else if (v.type() == ColumnType::kInt64) {
            agg.sum_int += v.as_int64();
          } else {
            DFDB_ASSIGN_OR_RETURN(double d, v.AsNumeric());
            if (agg.sum_double == nullptr) {
              agg.sum_double = std::make_unique<ExactSum>();
            }
            agg.sum_double->Add(d);
          }
          break;
        }
        case AggregateSpec::Func::kMin: {
          if (!agg.min.has_value()) {
            agg.min = v;
          } else {
            DFDB_ASSIGN_OR_RETURN(int c, v.Compare(*agg.min));
            if (c < 0) agg.min = v;
          }
          break;
        }
        case AggregateSpec::Func::kMax: {
          if (!agg.max.has_value()) {
            agg.max = v;
          } else {
            DFDB_ASSIGN_OR_RETURN(int c, v.Compare(*agg.max));
            if (c > 0) agg.max = v;
          }
          break;
        }
      }
    }
  }
  return Status::OK();
}

double Aggregator::SumAsDouble(const AggState& agg) {
  return agg.sum_double != nullptr ? agg.sum_double->Read()
                                   : static_cast<double>(agg.sum_int);
}

Status Aggregator::Finish(PageSink* out) {
  for (auto& [key, state] : groups_) {
    std::vector<Value> row = state.group_values;
    for (size_t s = 0; s < specs_.size(); ++s) {
      const AggState& agg = state.aggs[s];
      const int out_col = static_cast<int>(group_indices_.size() + s);
      const ColumnType out_type = output_schema_.column(out_col).type;
      switch (specs_[s].func) {
        case AggregateSpec::Func::kCount:
          row.push_back(Value::Int64(agg.count));
          break;
        case AggregateSpec::Func::kSum:
          if (out_type == ColumnType::kInt64) {
            row.push_back(Value::Int64(agg.sum_int));
          } else {
            row.push_back(Value::Double(SumAsDouble(agg)));
          }
          break;
        case AggregateSpec::Func::kAvg:
          row.push_back(Value::Double(
              agg.count == 0 ? 0.0
                             : SumAsDouble(agg) / static_cast<double>(agg.count)));
          break;
        case AggregateSpec::Func::kMin:
          if (!agg.min.has_value()) {
            return Status::Internal("MIN over empty group");
          }
          row.push_back(*agg.min);
          break;
        case AggregateSpec::Func::kMax:
          if (!agg.max.has_value()) {
            return Status::Internal("MAX over empty group");
          }
          row.push_back(*agg.max);
          break;
      }
    }
    DFDB_ASSIGN_OR_RETURN(std::string encoded, EncodeTuple(output_schema_, row));
    DFDB_RETURN_IF_ERROR(out->Emit(Slice(encoded)));
  }
  groups_.clear();
  return Status::OK();
}

}  // namespace dfdb
