#include "src/ckpt/serial.hh"

#include <bit>
#include <cstdio>
#include <memory>

namespace kilo::ckpt
{

void
expectEq(uint64_t got, uint64_t want, const char *what)
{
    if (got != want) {
        char buf[160];
        std::snprintf(buf, sizeof(buf),
                      "checkpoint mismatch: %s is %llu, expected %llu",
                      what, (unsigned long long)got,
                      (unsigned long long)want);
        throw CheckpointError(buf);
    }
}

namespace detail
{

namespace
{

// The container is little-endian on disk; every supported host is
// too, so the in-memory representation is the encoding.
static_assert(std::endian::native == std::endian::little,
              "framed files require a little-endian host");

constexpr long HeaderBytes = 8 + 4 + 8 + 8;

} // anonymous namespace

std::string
writeFramed(const std::string &path, const char (&magic)[8],
            uint32_t version, const std::vector<uint8_t> &payload)
{
    const std::string name(magic, sizeof(magic));
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return "cannot open " + name + " file for writing: " + path;
    uint64_t size = payload.size();
    uint64_t checksum = util::fnv1a(payload.data(), payload.size());
    bool ok = std::fwrite(magic, 1, sizeof(magic), f) == sizeof(magic) &&
              std::fwrite(&version, 1, sizeof(version), f) ==
                  sizeof(version) &&
              std::fwrite(&size, 1, sizeof(size), f) == sizeof(size) &&
              std::fwrite(&checksum, 1, sizeof(checksum), f) ==
                  sizeof(checksum) &&
              (payload.empty() ||
               std::fwrite(payload.data(), 1, payload.size(), f) ==
                   payload.size());
    ok = std::fclose(f) == 0 && ok;
    return ok ? "" : "short write to " + name + " file: " + path;
}

std::string
readFramed(const std::string &path, const char (&magic)[8],
           uint32_t version, std::vector<uint8_t> &payload)
{
    const std::string name(magic, sizeof(magic));
    std::unique_ptr<std::FILE, int (*)(std::FILE *)> file(
        std::fopen(path.c_str(), "rb"), &std::fclose);
    std::FILE *f = file.get();
    if (!f)
        return "cannot open " + name + " file: " + path;

    char got_magic[sizeof(magic)];
    uint32_t got_version = 0;
    uint64_t size = 0;
    uint64_t checksum = 0;
    if (std::fread(got_magic, 1, sizeof(got_magic), f) !=
            sizeof(got_magic) ||
        std::memcmp(got_magic, magic, sizeof(magic)) != 0)
        return "not a " + name + " file: " + path;
    if (std::fread(&got_version, 1, sizeof(got_version), f) !=
        sizeof(got_version))
        return "truncated " + name + " header: " + path;
    if (got_version != version) {
        return name + " version " + std::to_string(got_version) +
               " not supported (this build reads version " +
               std::to_string(version) + "): " + path;
    }
    if (std::fread(&size, 1, sizeof(size), f) != sizeof(size) ||
        std::fread(&checksum, 1, sizeof(checksum), f) !=
            sizeof(checksum))
        return "truncated " + name + " header: " + path;

    long file_size = -1;
    if (std::fseek(f, 0, SEEK_END) == 0)
        file_size = std::ftell(f);
    if (file_size < HeaderBytes ||
        std::fseek(f, HeaderBytes, SEEK_SET) != 0)
        return "cannot size " + name + " file: " + path;
    uint64_t held = uint64_t(file_size - HeaderBytes);
    if (size != held) {
        return name + " header declares " + std::to_string(size) +
               " payload bytes, file holds " + std::to_string(held) +
               (size > held ? " (truncated): " : " (trailing bytes): ") +
               path;
    }

    payload.resize(size_t(size));
    if (!payload.empty() &&
        std::fread(payload.data(), 1, payload.size(), f) !=
            payload.size())
        return "truncated " + name + " payload: " + path;
    if (util::fnv1a(payload.data(), payload.size()) != checksum)
        return name + " checksum mismatch (corrupt file): " + path;
    return "";
}

} // namespace detail

} // namespace kilo::ckpt
