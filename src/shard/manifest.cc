#include "src/shard/manifest.hh"

#include <fstream>
#include <optional>
#include <sstream>

#include "src/util/parse.hh"

namespace kilo::shard
{

namespace
{

/** Strip leading/trailing blanks. */
std::string
trim(const std::string &s)
{
    size_t b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return "";
    size_t e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

[[noreturn]] void
fail(const std::string &where, size_t line_no, const std::string &msg)
{
    throw ShardError("malformed manifest: " + where + ":" +
                     std::to_string(line_no) + ": " + msg);
}

/** Whole-string decimal parse (util::parseU64); junk is an error. */
uint64_t
parseU64(const std::string &where, size_t line_no,
         const std::string &key, const std::string &value)
{
    std::optional<uint64_t> v = util::parseU64(value);
    if (!v) {
        fail(where, line_no,
             key + " needs an unsigned 64-bit integer, got '" + value +
                 "'");
    }
    return *v;
}

} // anonymous namespace

void
parseShardSpec(const std::string &spec, uint32_t &index,
               uint32_t &count)
{
    size_t slash = spec.find('/');
    std::optional<uint64_t> i, c;
    if (slash != std::string::npos) {
        i = util::parseU64(spec.substr(0, slash));
        c = util::parseU64(spec.substr(slash + 1));
    }
    if (!i || !c) {
        throw ShardError("shard spec must be INDEX/COUNT, got '" +
                         spec + "'");
    }
    if (*c == 0 || *c > 1u << 20)
        throw ShardError("implausible shard count in '" + spec + "'");
    if (*i >= *c) {
        throw ShardError("shard index " + std::to_string(*i) +
                         " outside count " + std::to_string(*c));
    }
    index = uint32_t(*i);
    count = uint32_t(*c);
}

Manifest
Manifest::parse(std::istream &in, const std::string &where)
{
    Manifest m;
    std::string line;
    size_t line_no = 0;
    bool saw_magic = false;
    bool saw_warmup = false, saw_measure = false;
    bool saw_max_cycles = false, saw_max_wall = false;
    bool saw_interval = false, saw_clusters = false;
    bool saw_sampling = false;
    bool saw_audit = false;
    bool saw_shard = false;

    while (std::getline(in, line)) {
        ++line_no;
        std::string text = trim(line);
        if (text.empty() || text[0] == '#')
            continue;

        if (!saw_magic) {
            // The first significant line must be the versioned magic.
            std::istringstream hs(text);
            std::string magic;
            uint32_t version = 0;
            hs >> magic >> version;
            if (magic != "KILOSHARD" || hs.fail())
                fail(where, line_no,
                     "expected 'KILOSHARD <version>' header");
            if (version != ManifestVersion) {
                fail(where, line_no,
                     "manifest version mismatch: file v" +
                         std::to_string(version) + ", reader v" +
                         std::to_string(ManifestVersion));
            }
            std::string rest;
            if (hs >> rest)
                fail(where, line_no, "trailing tokens after header");
            saw_magic = true;
            continue;
        }

        size_t space = text.find_first_of(" \t");
        if (space == std::string::npos)
            fail(where, line_no, "directive '" + text +
                                     "' has no value");
        std::string key = text.substr(0, space);
        std::string value = trim(text.substr(space + 1));
        if (value.empty())
            fail(where, line_no, "directive '" + key +
                                     "' has no value");

        auto scalar_once = [&](bool &seen) {
            if (seen)
                fail(where, line_no, "duplicate '" + key +
                                         "' directive");
            seen = true;
        };

        if (key == "machine") {
            m.machines.push_back(value);
        } else if (key == "workload") {
            m.workloads.push_back(value);
        } else if (key == "mem") {
            m.mems.push_back(value);
        } else if (key == "warmup") {
            scalar_once(saw_warmup);
            m.run.warmupInsts = parseU64(where, line_no, key, value);
        } else if (key == "measure") {
            scalar_once(saw_measure);
            m.run.measureInsts = parseU64(where, line_no, key, value);
        } else if (key == "max_cycles") {
            scalar_once(saw_max_cycles);
            m.run.maxCycles = parseU64(where, line_no, key, value);
        } else if (key == "max_wall_ms") {
            scalar_once(saw_max_wall);
            m.run.maxWallMs = parseU64(where, line_no, key, value);
        } else if (key == "interval") {
            scalar_once(saw_interval);
            m.run.intervalInsts =
                parseU64(where, line_no, key, value);
        } else if (key == "clusters") {
            scalar_once(saw_clusters);
            uint64_t v = parseU64(where, line_no, key, value);
            if (v == 0 || v > 1u << 20)
                fail(where, line_no,
                     "implausible cluster count: " + value);
            m.run.numClusters = uint32_t(v);
        } else if (key == "sampling") {
            scalar_once(saw_sampling);
            if (value == "off") {
                m.run.samplingMode = sim::SamplingMode::Off;
            } else if (value == "sampled") {
                m.run.samplingMode = sim::SamplingMode::Sampled;
            } else {
                fail(where, line_no,
                     "sampling must be 'off' or 'sampled', got '" +
                         value + "'");
            }
        } else if (key == "audit") {
            scalar_once(saw_audit);
            m.run.auditIntervalInsts =
                parseU64(where, line_no, key, value);
        } else if (key == "shard") {
            scalar_once(saw_shard);
            try {
                parseShardSpec(value, m.shardIndex, m.shardCount);
            } catch (const ShardError &e) {
                fail(where, line_no, e.what());
            }
        } else {
            fail(where, line_no, "unknown directive '" + key + "'");
        }
    }

    if (!saw_magic)
        fail(where, line_no, "empty manifest (no KILOSHARD header)");
    if (m.machines.empty())
        fail(where, line_no, "no 'machine' directive");
    if (m.workloads.empty())
        fail(where, line_no, "no 'workload' directive");
    if (m.mems.empty())
        fail(where, line_no, "no 'mem' directive");
    return m;
}

Manifest
Manifest::parse(const std::string &text)
{
    std::istringstream in(text);
    return parse(in, "<string>");
}

Manifest
Manifest::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw ShardError("cannot open manifest: " + path);
    return parse(in, path);
}

std::string
Manifest::serialize() const
{
    std::ostringstream os;
    os << "KILOSHARD " << ManifestVersion << "\n";
    for (const auto &v : machines)
        os << "machine " << v << "\n";
    for (const auto &v : workloads)
        os << "workload " << v << "\n";
    for (const auto &v : mems)
        os << "mem " << v << "\n";
    os << "warmup " << run.warmupInsts << "\n";
    os << "measure " << run.measureInsts << "\n";
    os << "max_cycles " << run.maxCycles << "\n";
    os << "max_wall_ms " << run.maxWallMs << "\n";
    // Sampling directives appear only when they deviate from the
    // defaults, so pre-sampling manifests round-trip byte-identically.
    if (run.intervalInsts)
        os << "interval " << run.intervalInsts << "\n";
    if (run.numClusters != sim::RunConfig().numClusters)
        os << "clusters " << run.numClusters << "\n";
    if (run.samplingMode == sim::SamplingMode::Sampled)
        os << "sampling sampled\n";
    if (run.auditIntervalInsts)
        os << "audit " << run.auditIntervalInsts << "\n";
    os << "shard " << shardIndex << "/" << shardCount << "\n";
    return os.str();
}

void
Manifest::save(const std::string &path) const
{
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        throw ShardError("cannot create manifest: " + path);
    out << serialize();
    out.flush();
    if (!out)
        throw ShardError("manifest write failed: " + path);
}

std::vector<sim::SweepJob>
Manifest::jobs() const
{
    return sim::SweepEngine::matrixByName(machines, workloads, mems,
                                          run);
}

} // namespace kilo::shard
