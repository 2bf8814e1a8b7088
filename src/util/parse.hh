/**
 * @file
 * The one unsigned-number parser for text the simulator reads from
 * outside: command-line flags of the tools and KILOSHARD manifest
 * values. Unlike bare strtoull it rejects what strtoull silently
 * accepts or truncates — an empty string, a leading sign or blank,
 * trailing junk ("25k", "1OOO") and values past 2^64 - 1.
 */

#pragma once

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>

namespace kilo::util
{

/**
 * Parse all of @p text as an unsigned integer in @p base (as for
 * strtoull: 10, 16, or 0 for C-style 0x/0 prefixes). Returns nullopt
 * unless every character is part of the number and it fits in
 * uint64_t.
 */
inline std::optional<uint64_t>
parseU64(const std::string &text, int base = 10)
{
    // strtoull would skip leading blanks and take a sign ('-'
    // negating modulo 2^64); an unsigned value starts with a digit,
    // or a hex letter in base 16.
    if (text.empty() ||
        !std::isalnum(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    unsigned long long v = std::strtoull(text.c_str(), &end, base);
    if (errno == ERANGE || end != text.c_str() + text.size())
        return std::nullopt;
    return uint64_t(v);
}

/**
 * parseU64 for the value @p text of command-line flag @p flag, capped
 * at @p max (the width of the field it fills): a bad value is a usage
 * error, so print why and exit with status 2.
 */
inline uint64_t
parseFlagU64(const char *flag, const std::string &text, int base = 10,
             uint64_t max = UINT64_MAX)
{
    std::optional<uint64_t> v = parseU64(text, base);
    if (!v || *v > max) {
        std::fprintf(stderr, "%s needs an unsigned integer", flag);
        if (max != UINT64_MAX)
            std::fprintf(stderr, " up to %llu", (unsigned long long)max);
        std::fprintf(stderr, ", got '%s'\n", text.c_str());
        std::exit(2);
    }
    return *v;
}

} // namespace kilo::util
