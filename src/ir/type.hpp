#pragma once
// MiniIR type system: scalar integers (i1/i16/i32/i64), double-precision
// floats, pointers, and 4-lane vectors of the arithmetic scalars.
//
// MiniIR is the LLVM-IR stand-in this repo compiles and autotunes (see
// DESIGN.md, "Substitutions"). Narrow integer widths exist specifically so
// the sign-extension / SLP-profitability interaction from the paper's
// Fig. 5.1 can be reproduced.

#include <cstdint>
#include <string>

namespace citroen::ir {

enum class Scalar : std::uint8_t { Void, I1, I16, I32, I64, F64, Ptr };

struct Type {
  Scalar scalar = Scalar::Void;
  std::uint8_t lanes = 1;  ///< 1 (scalar) or 4 (vector)

  constexpr bool operator==(const Type&) const = default;

  constexpr bool is_void() const { return scalar == Scalar::Void; }
  constexpr bool is_int() const {
    return scalar == Scalar::I1 || scalar == Scalar::I16 ||
           scalar == Scalar::I32 || scalar == Scalar::I64;
  }
  constexpr bool is_float() const { return scalar == Scalar::F64; }
  constexpr bool is_ptr() const { return scalar == Scalar::Ptr; }
  constexpr bool is_vector() const { return lanes > 1; }

  /// Bit width of the scalar element (0 for void).
  constexpr int bit_width() const {
    switch (scalar) {
      case Scalar::I1: return 1;
      case Scalar::I16: return 16;
      case Scalar::I32: return 32;
      case Scalar::I64: return 64;
      case Scalar::F64: return 64;
      case Scalar::Ptr: return 64;
      case Scalar::Void: return 0;
    }
    return 0;
  }

  /// Element size in bytes as laid out in simulated memory.
  constexpr int elem_bytes() const {
    switch (scalar) {
      case Scalar::I1: return 1;
      case Scalar::I16: return 2;
      case Scalar::I32: return 4;
      case Scalar::I64: return 8;
      case Scalar::F64: return 8;
      case Scalar::Ptr: return 8;
      case Scalar::Void: return 0;
    }
    return 0;
  }

  constexpr int total_bytes() const { return elem_bytes() * lanes; }

  constexpr Type element() const { return Type{scalar, 1}; }
  constexpr Type vector4() const { return Type{scalar, 4}; }

  std::string str() const;
};

/// Name of a scalar type as printed ("i32", "f64", ...).
const char* scalar_name(Scalar s);

inline constexpr Type kVoid{Scalar::Void, 1};
inline constexpr Type kI1{Scalar::I1, 1};
inline constexpr Type kI16{Scalar::I16, 1};
inline constexpr Type kI32{Scalar::I32, 1};
inline constexpr Type kI64{Scalar::I64, 1};
inline constexpr Type kF64{Scalar::F64, 1};
inline constexpr Type kPtr{Scalar::Ptr, 1};

}  // namespace citroen::ir
