/**
 * @file
 * Versioned deterministic snapshot artifact framing.
 *
 * A snapshot is a single byte artifact:
 *
 *     magic "SMTOSNP2" (8)  | u32 formatVersion | u64 payloadBytes
 *     u64 fnv1a(payload)    | payload
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

#include <cstdint>
#include <cstring>
#include <string>
#include <vector>

#include "common/logging.h"

namespace smtos {

class CodeImage;

/** Artifact magic; the trailing digit is the major format era. */
constexpr char snapshotMagic[8] = {'S', 'M', 'T', 'O', 'S', 'N', 'P',
                                   '2'};

/** Bumped whenever the section list or header layout changes. */
constexpr std::uint32_t snapshotFormatVersion = 1;

/** FNV-1a over the payload; cheap and order-sensitive. */
inline std::uint64_t
snapshotChecksum(const std::uint8_t *p, std::size_t n)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ull;
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

/** Append-only writer producing the snapshot artifact. */
class Snapshotter
{
  public:
    Snapshotter() { buf_.reserve(1 << 16); }

    void
    u8(std::uint8_t v)
    {
        buf_.push_back(v);
    }

    void u16(std::uint16_t v) { raw(&v, sizeof v); }
    void u32(std::uint32_t v) { raw(&v, sizeof v); }
    void u64(std::uint64_t v) { raw(&v, sizeof v); }
    void i64(std::int64_t v) { raw(&v, sizeof v); }
    void i32(std::int32_t v) { raw(&v, sizeof v); }
    void b(bool v) { u8(v ? 1 : 0); }

    /** Doubles by bit pattern: restored sums stay bit-identical. */
    void
    f64(double v)
    {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof bits);
        u64(bits);
    }

    void
    bytes(const void *p, std::size_t n)
    {
        raw(p, n);
    }

    void
    str(const std::string &s)
    {
        u64(s.size());
        raw(s.data(), s.size());
    }

    /** Open a section; sections must not nest. */
    void
    beginSection(const char (&fourcc)[5], std::uint32_t version)
    {
        smtos_assert(lenAt_ == npos);
        u32(sectionTag(fourcc));
        u32(version);
        lenAt_ = buf_.size();
        u64(0); // patched by endSection()
    }

    void
    endSection()
    {
        smtos_assert(lenAt_ != npos);
        const std::uint64_t len = buf_.size() - lenAt_ - 8;
        std::memcpy(buf_.data() + lenAt_, &len, sizeof len);
        lenAt_ = npos;
    }

    /** Seal the payload into the final artifact. */
    std::vector<std::uint8_t>
    finish() const
    {
        smtos_assert(lenAt_ == npos);
        std::vector<std::uint8_t> out;
        out.reserve(buf_.size() + 28);
        out.insert(out.end(), snapshotMagic, snapshotMagic + 8);
        auto push = [&out](const void *p, std::size_t n) {
            const auto *b = static_cast<const std::uint8_t *>(p);
            out.insert(out.end(), b, b + n);
        };
        const std::uint32_t fv = snapshotFormatVersion;
        push(&fv, sizeof fv);
        const std::uint64_t n = buf_.size();
        push(&n, sizeof n);
        const std::uint64_t sum = snapshotChecksum(buf_.data(), n);
        push(&sum, sizeof sum);
        out.insert(out.end(), buf_.begin(), buf_.end());
        return out;
    }

  private:
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

/** Cursor over a validated artifact payload. */
class Restorer
{
  public:
    explicit Restorer(std::vector<std::uint8_t> artifact)
        : buf_(std::move(artifact))
    {
        validate();
    }

    /** False when the artifact was rejected; see error(). */
    bool ok() const { return error_.empty(); }
    const std::string &error() const { return error_; }

    std::uint8_t
    u8()
    {
        need(1);
        return buf_[pos_++];
    }

    std::uint16_t u16() { return rawAs<std::uint16_t>(); }
    std::uint32_t u32() { return rawAs<std::uint32_t>(); }
    std::uint64_t u64() { return rawAs<std::uint64_t>(); }
    std::int64_t i64() { return rawAs<std::int64_t>(); }
    std::int32_t i32() { return rawAs<std::int32_t>(); }
    bool b() { return u8() != 0; }

    double
    f64()
    {
        const std::uint64_t bits = u64();
        double v;
        std::memcpy(&v, &bits, sizeof v);
        return v;
    }

    void
    bytes(void *p, std::size_t n)
    {
        need(n);
        std::memcpy(p, buf_.data() + pos_, n);
        pos_ += n;
    }

    std::string
    str()
    {
        const std::uint64_t n = u64();
        need(n);
        std::string s(reinterpret_cast<const char *>(buf_.data()) +
                          pos_,
                      n);
        pos_ += n;
        return s;
    }

    /** Enter the next section, which must carry @p fourcc; returns
     *  its stored version. */
    std::uint32_t
    enterSection(const char (&fourcc)[5])
    {
        smtos_assert(ok());
        smtos_assert(sectionEnd_ == 0);
        const std::uint32_t tag = u32();
        smtos_assert(tag == sectionTag(fourcc));
        const std::uint32_t version = u32();
        const std::uint64_t len = u64();
        sectionEnd_ = pos_ + len;
        smtos_assert(sectionEnd_ <= buf_.size());
        return version;
    }

    void
    leaveSection()
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

    /** True when the whole payload has been consumed. Valid only
     *  between sections; lets readers detect optional trailing
     *  sections that older artifacts do not carry. */
    bool
    atEnd() const
    {
        smtos_assert(sectionEnd_ == 0);
        return pos_ == buf_.size();
    }

    /** Non-consuming peek at the next section's tag. Valid only
     *  between sections; with several *optional* trailing sections,
     *  atEnd() alone cannot tell a reader which one comes next. */
    bool
    nextSectionIs(const char (&fourcc)[5]) const
    {
        smtos_assert(sectionEnd_ == 0);
        if (pos_ + 4 > buf_.size())
            return false;
        std::uint32_t tag;
        std::memcpy(&tag, buf_.data() + pos_, sizeof tag);
        return tag == sectionTag(fourcc);
    }

  private:
    void
    validate()
    {
        constexpr std::size_t headerBytes = 8 + 4 + 8 + 8;
        if (buf_.size() < headerBytes) {
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
        if (buf_.size() - headerBytes != payload) {
            error_ = "snapshot rejected: payload length mismatch";
            return;
        }
        std::uint64_t sum;
        std::memcpy(&sum, buf_.data() + 20, sizeof sum);
        if (snapshotChecksum(buf_.data() + headerBytes, payload) !=
            sum) {
            error_ = "snapshot rejected: checksum mismatch";
            return;
        }
        pos_ = headerBytes;
    }

    template <typename T>
    T
    rawAs()
    {
        need(sizeof(T));
        T v;
        std::memcpy(&v, buf_.data() + pos_, sizeof v);
        pos_ += sizeof v;
        return v;
    }

    void
    need(std::size_t n)
    {
        smtos_assert(pos_ + n <= buf_.size());
        smtos_assert(sectionEnd_ == 0 || pos_ + n <= sectionEnd_);
    }

    std::vector<std::uint8_t> buf_;
    std::size_t pos_ = 0;
    std::size_t sectionEnd_ = 0;
    std::string error_;
};

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

  private:
    std::vector<const CodeImage *> images_;
};

} // namespace smtos

#endif // SMTOS_SNAP_SNAPSHOT_H
