#pragma once
// Textual dump of MiniIR, for debugging and golden tests.

#include <cstdint>
#include <string>

#include "ir/module.hpp"

namespace citroen::ir {

std::string print_function(const Function& f);
std::string print_module(const Module& m);

/// 64-bit FNV-1a of print_module(m)'s bytes, folded as they are printed
/// rather than from a built string. It is a build's identity: binary
/// hashes, prefix-cache salts and program hashes are made from it.
std::uint64_t print_hash(const Module& m);

}  // namespace citroen::ir
