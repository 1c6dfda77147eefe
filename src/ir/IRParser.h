//===- ir/IRParser.h - Textual IR input -------------------------*- C++ -*-===//
///
/// \file
/// One-pass reader for the textual IR (DESIGN.md §15). The grammar (';'
/// starts a line comment):
///
/// \code
///   module   := function*
///   function := 'func' '@' ident '(' params? ')' '{' block+ '}'
///   params   := '%' ident (',' '%' ident)*
///   block    := ident ':' stmt*
///   stmt     := '%' ident '=' op ...          ; value-producing
///             | 'store' operand ',' operand
///             | 'br' ident
///             | 'cbr' operand ',' ident ',' ident
///             | 'ret' operand
///             | 'spill' '%' ident ',' integer
///   phi rhs  := 'phi' '[' operand ',' ident ']' (',' '[' ... ']')*
///   operand  := '%' ident | integer
/// \endcode
///
/// Phi operands are written with explicit predecessor labels and are
/// re-ordered internally to match the block's predecessor list. Variable ids
/// follow first appearance in the text (parameters first); block ids follow
/// label order.
///
//===----------------------------------------------------------------------===//

#ifndef FCC_IR_IRPARSER_H
#define FCC_IR_IRPARSER_H

#include "ir/Module.h"
#include <memory>
#include <string>
#include <string_view>

namespace fcc {

/// Parses \p Text into a Module. On failure returns nullptr and fills
/// \p Error with a "line N: message" diagnostic.
std::unique_ptr<Module> parseModule(std::string_view Text, std::string &Error);

/// Convenience wrapper for tests: parses a module that must contain exactly
/// one function and must be well-formed; asserts otherwise.
std::unique_ptr<Module> parseSingleFunctionOrDie(std::string_view Text);

} // namespace fcc

#endif // FCC_IR_IRPARSER_H
