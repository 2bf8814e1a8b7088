/**
 * @file
 * The number parsers for text the simulator reads from outside:
 * command-line flags of the tools and KILOSHARD manifest values.
 * Unlike bare strtoull/strtod they reject what those silently accept
 * or truncate — an empty string, a leading blank, trailing junk
 * ("25k", "1OOO", "2.0x"), an unsigned value with a sign or past
 * 2^64 - 1, and a real value that is not finite ("inf", "nan",
 * "1e999").
 */

#pragma once

#include <cctype>
#include <cerrno>
#include <cmath>
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

/**
 * Parse all of @p text as a finite real number (as for strtod).
 * Returns nullopt unless every character is part of the number and
 * the value is finite and representable.
 */
inline std::optional<double>
parseF64(const std::string &text)
{
    // strtod would skip leading blanks and read "inf"/"nan".
    if (text.empty() ||
        std::isspace(static_cast<unsigned char>(text[0])))
        return std::nullopt;
    errno = 0;
    char *end = nullptr;
    double v = std::strtod(text.c_str(), &end);
    if (errno == ERANGE || end != text.c_str() + text.size() ||
        !std::isfinite(v))
        return std::nullopt;
    return v;
}

/**
 * parseF64 for the value @p text of command-line flag @p flag: a bad
 * value is a usage error, so print why and exit with status 2.
 */
inline double
parseFlagF64(const char *flag, const std::string &text)
{
    std::optional<double> v = parseF64(text);
    if (!v) {
        std::fprintf(stderr, "%s needs a finite number, got '%s'\n",
                     flag, text.c_str());
        std::exit(2);
    }
    return *v;
}

} // namespace kilo::util
