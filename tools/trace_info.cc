/**
 * @file
 * Trace inspection utility: prints a KILOTRC file's header
 * (provenance, prewarm regions), block statistics and a per-opcode
 * histogram of the recorded stream.
 *
 *     trace_info <file.ktrc>
 *     trace_info --verify <file.ktrc>
 *
 * --verify walks every block through the reader's validating path
 * (framing, truncation, per-block checksum) WITHOUT decoding, prints
 * one line per block with its payload's FNV-1a digest, and fails
 * with the offending block's index on the first malformation — so a
 * torn or bit-flipped mid-file block is found now, not when a replay
 * finally reaches it. The digests also let two copies of a trace be
 * compared block-by-block without shipping either file.
 */

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/trace/trace_reader.hh"
#include "src/util/fnv.hh"

using namespace kilo;

namespace
{

/**
 * Walk every block through the validating no-copy path and print
 * per-block digests. Returns 0 when the whole file checks out.
 */
int
verifyTrace(const char *path)
{
    trace::Reader reader(path);
    std::printf("trace      %s\n", path);
    std::printf("name       %s\n", reader.meta().name.c_str());
    std::printf("ops        %llu (header)\n",
                (unsigned long long)reader.opCount());
    std::printf("\n%-8s %10s %12s  %s\n", "block", "ops", "bytes",
                "fnv1a");

    uint64_t blocks = 0, total_ops = 0;
    for (;;) {
        const uint8_t *payload = nullptr;
        size_t payload_bytes = 0;
        uint32_t ops;
        try {
            ops = reader.nextBlockView(payload, payload_bytes);
        } catch (const trace::TraceError &e) {
            std::fprintf(stderr,
                         "error: block %llu: %s\n",
                         (unsigned long long)blocks, e.what());
            return 1;
        }
        if (ops == 0)
            break; // clean end-of-file
        std::printf("%-8llu %10u %12zu  %016llx\n",
                    (unsigned long long)blocks, ops, payload_bytes,
                    (unsigned long long)util::fnv1a(payload,
                                                    payload_bytes));
        ++blocks;
        total_ops += ops;
    }

    if (total_ops != reader.opCount()) {
        std::fprintf(stderr,
                     "error: header declares %llu ops, blocks hold "
                     "%llu\n",
                     (unsigned long long)reader.opCount(),
                     (unsigned long long)total_ops);
        return 1;
    }
    std::printf("\n%llu block(s), %llu ops: all checksums OK\n",
                (unsigned long long)blocks,
                (unsigned long long)total_ops);
    return 0;
}

int
usage(const char *argv0)
{
    std::fprintf(stderr, "usage: %s [--verify] <file.ktrc>\n", argv0);
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    bool verify = false;
    const char *path = nullptr;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--verify") == 0)
            verify = true;
        else if (argv[i][0] == '-' || path)
            return usage(argv[0]);
        else
            path = argv[i];
    }
    if (!path)
        return usage(argv[0]);

    try {
        if (verify)
            return verifyTrace(path);

        trace::Reader reader(path);
        const trace::TraceMeta &meta = reader.meta();

        std::printf("trace      %s\n", path);
        std::printf("name       %s\n", meta.name.c_str());
        std::printf("suite      %s\n", meta.fp ? "FP" : "INT");
        std::printf("seed       %llu\n",
                    (unsigned long long)meta.seed);
        std::printf("ops        %llu\n",
                    (unsigned long long)reader.opCount());
        std::printf("regions    %zu\n", meta.regions.size());
        for (const auto &r : meta.regions) {
            std::printf("  base 0x%010llx  %8.2f KB\n",
                        (unsigned long long)r.base,
                        double(r.bytes) / 1024.0);
        }

        uint64_t op_counts[isa::NumOpClasses] = {};
        uint64_t total = 0, blocks = 0, payload_ops_max = 0;
        std::vector<isa::MicroOp> block;
        while (reader.readBlock(block)) {
            ++blocks;
            if (block.size() > payload_ops_max)
                payload_ops_max = block.size();
            for (const auto &op : block) {
                ++op_counts[size_t(op.cls)];
                ++total;
            }
        }
        std::printf("blocks     %llu (largest %llu ops)\n",
                    (unsigned long long)blocks,
                    (unsigned long long)payload_ops_max);
        if (total != reader.opCount()) {
            std::fprintf(stderr,
                         "error: header declares %llu ops, blocks "
                         "hold %llu\n",
                         (unsigned long long)reader.opCount(),
                         (unsigned long long)total);
            return 1;
        }

        std::printf("\n%-8s %12s %8s\n", "opcode", "count", "share");
        for (int c = 0; c < isa::NumOpClasses; ++c) {
            if (op_counts[c] == 0)
                continue;
            std::printf("%-8s %12llu %7.2f%%\n",
                        isa::opClassName(isa::OpClass(c)),
                        (unsigned long long)op_counts[c],
                        total ? 100.0 * double(op_counts[c]) /
                                double(total)
                              : 0.0);
        }
    } catch (const trace::TraceError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return 0;
}
