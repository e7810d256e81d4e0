/**
 * @file
 * Versioned deterministic snapshot artifact framing.
 *
 * A snapshot is a single byte artifact:
 *
 *     magic "SMTOSNP2" (8)  | u32 formatVersion | u64 payloadBytes
 *     u64 snapshotChecksum(payload) | payload
 *
 * and the payload is a strict sequence of sections, each
 *
 *     u32 fourcc | u32 sectionVersion | u64 byteLen | bytes
 *
 * written and read in the same fixed order. The Restorer validates
 * magic, format version, length and checksum at construction and
 * reports failure through ok()/error() — corruption and version skew
 * are rejected gracefully, before any state is touched. After that
 * gate, framing violations are programming errors and assert.
 *
 * Values are stored little-endian-of-host (snapshots are same-host
 * artifacts, like SimOS checkpoints); doubles round-trip by bit
 * pattern so accumulated statistics restore bit-identically.
 */

#ifndef SMTOS_SNAP_SNAPSHOT_H
#define SMTOS_SNAP_SNAPSHOT_H

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <type_traits>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"

namespace smtos {

class CodeImage;

/** Artifact magic; the trailing digit is the major format era. */
constexpr char snapshotMagic[8] = {'S', 'M', 'T', 'O', 'S', 'N', 'P',
                                   '2'};

/** Bumped whenever the section list, a section's layout or the header
 *  changes; an artifact of any other version is refused. */
constexpr std::uint32_t snapshotFormatVersion = 4;

/** Magic, format version, payload length and checksum. */
constexpr std::size_t snapshotHeaderBytes = 8 + 4 + 8 + 8;

/**
 * FNV-1a over the payload, folding in one 8-byte word (host byte order)
 * per multiply and then the 0-7 byte tail a byte at a time. Cheap and
 * order-sensitive; any change confined to one word changes the hash,
 * since the xor and the multiply by an odd prime are both bijections
 * mod 2^64. Words are loaded with memcpy: the payload starts 28 bytes
 * into the artifact, so it is not 8-byte aligned.
 */
inline std::uint64_t
snapshotChecksum(const std::uint8_t *p, std::size_t n)
{
    constexpr std::uint64_t prime = 0x100000001b3ull;
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, sizeof w);
        h ^= w;
        h *= prime;
    }
    for (; i < n; ++i) {
        h ^= p[i];
        h *= prime;
    }
    return h;
}

/** Pack a 4-char section tag into its on-disk u32. */
inline std::uint32_t
sectionTag(const char (&fourcc)[5])
{
    return static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[0])) |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[1]))
               << 8 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[2]))
               << 16 |
           static_cast<std::uint32_t>(
               static_cast<unsigned char>(fourcc[3]))
               << 24;
}

/**
 * The vocabulary every snapshotted class's field list is written in,
 * shared by both archives. A class lists its fields once, in artifact
 * order, in `template <typename Ar> void snap(Ar &ar)`: with a
 * Snapshotter the list writes, with a Restorer it reads. Ar::loading
 * guards what only one direction does (rebuilding derived state,
 * translating pids/image ids back into pointers).
 *
 *   io(v)        scalar at its own width; bool as one 0/1 byte,
 *                enums as u8, strings as u64 length + bytes
 *   pod(v)       raw bytes of an object, or of a vector's elements
 *                (no length); the type may carry no padding bits
 *   vec(v)       u64 length + raw element bytes; resized on load
 *   expect(v)    a value the rebuilt object already holds (version
 *                tag, structural size): written, and checked on load
 *   seq(c, f)    u64 length + f(element) for each; resized on load
 *   map(m)       unordered integer map, sorted by key so equal state
 *                gives equal bytes
 *
 * Everything but io is written once here, over the archives' io and
 * raw byte copy. A length read from the artifact is checked against
 * the bytes left in the section (fits) before it sizes anything; seq
 * checks one byte per element, the least any element's f reads.
 */
template <typename Ar>
class Archive
{
  public:
    template <typename T>
    void
    expect(const T &v)
    {
        T got = v;
        self().io(got);
        smtos_assert(got == v);
    }

    template <typename T>
    void
    vec(std::vector<T> &v)
    {
        std::uint64_t n = v.size();
        self().io(n);
        if constexpr (Ar::loading) {
            self().fits(n, sizeof(T));
            v.resize(n);
        }
        pod(v);
    }

    template <typename C, typename F>
    void
    seq(C &c, F &&f)
    {
        std::uint64_t n = c.size();
        self().io(n);
        if constexpr (Ar::loading) {
            self().fits(n, 1);
            c.clear();
            c.resize(n);
        }
        for (auto &e : c)
            f(e);
    }

    template <typename K, typename V>
    void
    map(std::unordered_map<K, V> &m)
    {
        std::uint64_t n = m.size();
        self().io(n);
        if constexpr (Ar::loading) {
            self().fits(n, 2 * sizeof(std::uint64_t));
            m.clear();
            m.reserve(n);
            for (; n > 0; --n) {
                std::uint64_t k = 0, v = 0;
                self().io(k);
                self().io(v);
                m.emplace(static_cast<K>(k), static_cast<V>(v));
            }
        } else {
            // Keys are unique, so sorting the pairs by key alone
            // orders them completely.
            std::vector<std::pair<K, V>> rows(m.begin(), m.end());
            std::sort(rows.begin(), rows.end(),
                      [](const auto &a, const auto &b) {
                          return a.first < b.first;
                      });
            for (const auto &[k, v] : rows) {
                self().io(static_cast<std::uint64_t>(k));
                self().io(static_cast<std::uint64_t>(v));
            }
        }
    }

    /** Raw bytes. The type may have no padding: padding bytes hold
     *  whatever the storage held before, and an artifact must be a
     *  function of simulated state alone. */
    template <typename T>
    void
    pod(T &v)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "pod() needs a type without padding bits");
        self().raw(&v, sizeof v);
    }

    template <typename T>
    void
    pod(std::vector<T> &v)
    {
        static_assert(std::has_unique_object_representations_v<T>,
                      "pod() needs a type without padding bits");
        self().raw(v.data(), v.size() * sizeof(T));
    }

  private:
    Ar &self() { return static_cast<Ar &>(*this); }
};

/** Append-only writer producing the snapshot artifact. */
class Snapshotter : public Archive<Snapshotter>
{
  public:
    static constexpr bool loading = false;

    /** The header's bytes are reserved up front and filled in by
     *  finish(), so sealing never copies the payload. */
    Snapshotter()
    {
        buf_.reserve(1 << 16);
        buf_.resize(snapshotHeaderBytes);
    }

    template <typename T>
    void
    io(const T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            io(static_cast<std::uint8_t>(v));
        } else if constexpr (sizeof(T) == 1) {
            // bool is one 0/1 byte.
            buf_.push_back(static_cast<std::uint8_t>(v));
        } else {
            static_assert(std::is_arithmetic_v<T>);
            // Doubles go by bit pattern, so restored sums stay
            // bit-identical.
            raw(&v, sizeof v);
        }
    }

    void
    io(const std::string &s)
    {
        io(std::uint64_t{s.size()});
        raw(s.data(), s.size());
    }

    /** Open a section; sections must not nest. */
    void
    beginSection(const char (&fourcc)[5], std::uint32_t version)
    {
        smtos_assert(lenAt_ == npos);
        io(sectionTag(fourcc));
        io(version);
        lenAt_ = buf_.size();
        io(std::uint64_t{0}); // patched by endSection()
    }

    void
    endSection()
    {
        smtos_assert(lenAt_ != npos);
        const std::uint64_t len = buf_.size() - lenAt_ - 8;
        std::memcpy(buf_.data() + lenAt_, &len, sizeof len);
        lenAt_ = npos;
    }

    /** Seal the payload into the final artifact, handing over the
     *  buffer: call once, as the writer's last use. */
    std::vector<std::uint8_t>
    finish()
    {
        smtos_assert(lenAt_ == npos);
        smtos_assert(buf_.size() >= snapshotHeaderBytes);
        std::uint8_t *h = buf_.data();
        const std::uint32_t fv = snapshotFormatVersion;
        const std::uint64_t n = buf_.size() - snapshotHeaderBytes;
        const std::uint64_t sum =
            snapshotChecksum(h + snapshotHeaderBytes, n);
        std::memcpy(h, snapshotMagic, 8);
        std::memcpy(h + 8, &fv, sizeof fv);
        std::memcpy(h + 12, &n, sizeof n);
        std::memcpy(h + 20, &sum, sizeof sum);
        return std::move(buf_);
    }

  private:
    friend class Archive<Snapshotter>;
    static constexpr std::size_t npos = ~std::size_t{0};

    void
    raw(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    std::vector<std::uint8_t> buf_;
    std::size_t lenAt_ = npos;
};

/** Cursor over a validated artifact payload. It reads the caller's
 *  bytes in place, so the artifact must outlive the Restorer. */
class Restorer : public Archive<Restorer>
{
  public:
    static constexpr bool loading = true;

    explicit Restorer(std::span<const std::uint8_t> artifact)
        : buf_(artifact)
    {
        validate();
    }
    Restorer(std::vector<std::uint8_t> &&) = delete; // would dangle

    /** False when the artifact was rejected; see error(). */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    template <typename T>
    void
    io(T &v)
    {
        if constexpr (std::is_enum_v<T>) {
            std::uint8_t u = 0;
            io(u);
            v = static_cast<T>(u);
        } else if constexpr (std::is_same_v<T, bool>) {
            std::uint8_t u = 0;
            io(u);
            v = u != 0;
        } else {
            static_assert(std::is_arithmetic_v<T>);
            raw(&v, sizeof v);
        }
    }

    void
    io(std::string &s)
    {
        std::uint64_t n = 0;
        io(n);
        fits(n, 1);
        s.assign(reinterpret_cast<const char *>(buf_.data()) + pos_, n);
        pos_ += n;
    }

    /** Enter the next section, which must carry @p fourcc; returns
     *  its stored version. */
    std::uint32_t
    enterSection(const char (&fourcc)[5])
    {
        smtos_assert(ok());
        smtos_assert(sectionEnd_ == 0);
        std::uint32_t tag = 0, version = 0;
        std::uint64_t len = 0;
        io(tag);
        smtos_assert(tag == sectionTag(fourcc));
        io(version);
        io(len);
        fits(len, 1);
        sectionEnd_ = pos_ + len;
        return version;
    }

    /** Enter the next section, which must carry @p fourcc at
     *  @p version (the mirror of Snapshotter::beginSection). */
    void
    beginSection(const char (&fourcc)[5], std::uint32_t version)
    {
        smtos_assert(enterSection(fourcc) == version);
    }

    void
    endSection()
    {
        smtos_assert(sectionEnd_ != 0);
        smtos_assert(pos_ == sectionEnd_);
        sectionEnd_ = 0;
    }

    /** Skip the unread remainder of the current section (a reader
     *  that does not want the section's optional payload). */
    void
    skipRest()
    {
        smtos_assert(sectionEnd_ != 0);
        pos_ = sectionEnd_;
    }

  private:
    friend class Archive<Restorer>;

    void
    validate()
    {
        if (buf_.size() < snapshotHeaderBytes) {
            error_ = "snapshot rejected: truncated header";
            return;
        }
        if (std::memcmp(buf_.data(), snapshotMagic, 7) != 0) {
            error_ = "snapshot rejected: bad magic";
            return;
        }
        if (buf_[7] != static_cast<std::uint8_t>(snapshotMagic[7])) {
            error_ = std::string("snapshot rejected: format era ") +
                     static_cast<char>(buf_[7]) + " (supported " +
                     snapshotMagic[7] + ")";
            return;
        }
        std::uint32_t fv;
        std::memcpy(&fv, buf_.data() + 8, sizeof fv);
        if (fv != snapshotFormatVersion) {
            error_ = "snapshot rejected: format version " +
                     std::to_string(fv) + " (supported " +
                     std::to_string(snapshotFormatVersion) + ")";
            return;
        }
        std::uint64_t payload;
        std::memcpy(&payload, buf_.data() + 12, sizeof payload);
        if (buf_.size() - snapshotHeaderBytes != payload) {
            error_ = "snapshot rejected: payload length mismatch";
            return;
        }
        std::uint64_t sum;
        std::memcpy(&sum, buf_.data() + 20, sizeof sum);
        if (snapshotChecksum(buf_.data() + snapshotHeaderBytes, payload) !=
            sum) {
            error_ = "snapshot rejected: checksum mismatch";
            return;
        }
        pos_ = snapshotHeaderBytes;
    }

    void
    raw(void *p, std::size_t n)
    {
        fits(n, 1);
        if (n > 0) // an empty vector's data() may be null
            std::memcpy(p, buf_.data() + pos_, n);
        pos_ += n;
    }

    /** @p n elements of @p elemBytes each fit in what is left: checked
     *  before a length read from the artifact sizes or reads anything. */
    void
    fits(std::uint64_t n, std::size_t elemBytes)
    {
        smtos_assert(n <= left() / elemBytes);
    }

    /** Bytes left in the current section (in the payload between
     *  sections). */
    std::size_t
    left() const
    {
        return (sectionEnd_ != 0 ? sectionEnd_ : buf_.size()) - pos_;
    }

    std::span<const std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0;
    std::string error_;
};

/** Explicitly instantiate Class::snap for both archives; the extra
 *  arguments are snap()'s parameters after the archive. */
#define SMTOS_SNAP_INSTANTIATE(Class, ...)                              \
    template void Class::snap(Snapshotter & __VA_OPT__(, ) __VA_ARGS__); \
    template void Class::snap(Restorer & __VA_OPT__(, ) __VA_ARGS__)

/**
 * Deterministic registry of every code image a run can execute, so
 * `const Instr *` and `const CodeImage *` serialize as stable small
 * ids. Both sides build it the same way: kernel image first, then
 * user images deduplicated in pid order.
 */
class SnapImages
{
  public:
    void
    add(const CodeImage *img)
    {
        if (!img)
            return;
        for (const CodeImage *have : images_)
            if (have == img)
                return;
        images_.push_back(img);
    }

    int
    idOf(const CodeImage *img) const
    {
        for (std::size_t i = 0; i < images_.size(); ++i)
            if (images_[i] == img)
                return static_cast<int>(i);
        smtos_fatal("snapshot: code image not in registry");
    }

    const CodeImage *
    byId(int id) const
    {
        smtos_assert(id >= 0 &&
                     id < static_cast<int>(images_.size()));
        return images_[static_cast<std::size_t>(id)];
    }

    int count() const { return static_cast<int>(images_.size()); }

    /** A code-image pointer as its registry id (-1 = null). */
    template <typename Ar>
    void
    io(Ar &ar, const CodeImage *&img) const
    {
        std::int32_t id = img ? idOf(img) : -1;
        ar.io(id);
        if constexpr (Ar::loading)
            img = id < 0 ? nullptr : byId(id);
    }

  private:
    std::vector<const CodeImage *> images_;
};

} // namespace smtos

#endif // SMTOS_SNAP_SNAPSHOT_H
