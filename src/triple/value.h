// Typed values of the universal storage.
//
// UniStore stores heterogeneous public data; attribute values are typed
// (the paper's example schema uses String, Number and Date — dates are
// represented as strings here). Values order as: null < numbers < strings,
// with numbers compared numerically regardless of integer/real
// representation.
#ifndef UNISTORE_TRIPLE_VALUE_H_
#define UNISTORE_TRIPLE_VALUE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <variant>

#include "common/codec.h"
#include "common/result.h"

namespace unistore {
namespace triple {

enum class ValueType : uint8_t {
  kNull = 0,
  kInt = 1,
  kReal = 2,
  kString = 3,
};

/// \brief A null, integer, real or string value.
class Value {
 public:
  /// Null value.
  Value() = default;

  static Value Null() { return Value(); }
  static Value Int(int64_t v) { return Value(std::in_place_index<1>, v); }
  static Value Real(double v) { return Value(std::in_place_index<2>, v); }
  static Value String(std::string v) {
    return Value(std::in_place_index<3>, std::move(v));
  }

  ValueType type() const { return static_cast<ValueType>(rep_.index()); }
  bool is_null() const { return type() == ValueType::kNull; }
  bool is_number() const {
    return type() == ValueType::kInt || type() == ValueType::kReal;
  }
  bool is_string() const { return type() == ValueType::kString; }

  /// Numeric view (0 for non-numbers).
  double AsDouble() const;
  /// Integer view (truncates reals; 0 for others).
  int64_t AsInt() const;
  /// String view; empty for non-strings.
  const std::string& AsString() const;

  /// Total order: null < numbers (numeric) < strings (byte-wise).
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  /// \brief Order-preserving encoding for index-key construction.
  ///
  /// Produces a string whose byte-wise order matches Value order:
  /// "!" for null; "n" + 16-hex-digit monotone transform of the IEEE bits
  /// for numbers; "s" + the raw string for strings. Type tags keep the
  /// three classes in disjoint, correctly ordered key regions.
  std::string ToIndexString() const;

  /// Human-readable rendering (query results, logs).
  std::string ToDisplayString() const;

  void Encode(BufferWriter* w) const;
  static Result<Value> Decode(BufferReader* r);

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator!=(const Value& other) const { return Compare(other) != 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }
  bool operator<=(const Value& other) const { return Compare(other) <= 0; }
  bool operator>(const Value& other) const { return Compare(other) > 0; }
  bool operator>=(const Value& other) const { return Compare(other) >= 0; }

 private:
  using Rep = std::variant<std::monostate, int64_t, double, std::string>;
  /// Builds alternative I of `rep_` in place. Moving a Rep temporary
  /// instead trips GCC 12's -Wmaybe-uninitialized in sanitizer builds.
  template <size_t I, typename T>
  Value(std::in_place_index_t<I> index, T&& v)
      : rep_(index, std::forward<T>(v)) {}

  Rep rep_;
};

}  // namespace triple
}  // namespace unistore

#endif  // UNISTORE_TRIPLE_VALUE_H_
