/**
 * @file
 * The one binary codec of the repository: an append-to-string
 * little-endian writer, a bounds-checked reader over an in-memory
 * buffer, and FNV-1a. The checkpoint snapshot (sim/snapshot), the
 * SPTRES01 result record (sim/result_cache) and the SPTKMAP1
 * knowledge map (core/knowledge_map) all encode through it; each
 * keeps its own framing (magic, version width, trailer).
 *
 * Decoders read the whole input into memory first, so every read is
 * checked against the bytes that actually remain and a malformed
 * input raises FatalError (the user-error class), never an
 * out-of-bounds read or an allocation sized by a corrupt count.
 */

#ifndef SPT_COMMON_BINIO_H
#define SPT_COMMON_BINIO_H

#include <bit>
#include <cstddef>
#include <cstdint>
#include <istream>
#include <iterator>
#include <string>
#include <string_view>
#include <utility>

#include "common/logging.h"

namespace spt {

inline constexpr uint64_t kFnvOffset = 1469598103934665603ull;
inline constexpr uint64_t kFnvPrime = 1099511628211ull;

/** 64-bit FNV-1a of @p bytes, continuing from @p h. */
inline uint64_t
fnv1a(std::string_view bytes, uint64_t h = kFnvOffset)
{
    for (const char c : bytes) {
        h ^= static_cast<uint8_t>(c);
        h *= kFnvPrime;
    }
    return h;
}

/** FNV-1a over the 8 little-endian bytes of @p v, continuing from
 *  @p h: hashes a sequence of words as if they had been written
 *  with BinWriter::u64. */
inline uint64_t
fnv1aU64(uint64_t h, uint64_t v)
{
    char le[8];
    for (int i = 0; i < 8; ++i)
        le[i] = static_cast<char>(v >> (8 * i));
    return fnv1a(std::string_view(le, 8), h);
}

/** Little-endian writer that appends to a string. */
class BinWriter
{
  public:
    void u8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
    void u16(uint16_t v) { le(v); }
    void u32(uint32_t v) { le(v); }
    void u64(uint64_t v) { le(v); }
    void f64(double v) { u64(std::bit_cast<uint64_t>(v)); }
    void b(bool v) { u8(v ? 1 : 0); }
    /** Length-prefixed (u64) string. */
    void
    str(std::string_view s)
    {
        u64(s.size());
        out_.append(s);
    }
    void
    bytes(const void *data, size_t len)
    {
        out_.append(static_cast<const char *>(data), len);
    }

    const std::string &data() const { return out_; }
    std::string take() { return std::move(out_); }

  private:
    template <typename T>
    void
    le(T v)
    {
        char b[sizeof(T)];
        for (size_t i = 0; i < sizeof(T); ++i)
            b[i] = static_cast<char>(v >> (8 * i));
        out_.append(b, sizeof(T));
    }

    std::string out_;
};

/** Bounds-checked little-endian reader over a buffer it does not
 *  own. @p what names the format in diagnostics ("snapshot",
 *  "result record", "knowledge map"); every malformation raises
 *  FatalError. */
class BinReader
{
  public:
    BinReader(std::string_view buf, const char *what)
        : buf_(buf), what_(what)
    {
    }

    uint8_t u8() { return le<uint8_t>(); }
    uint16_t u16() { return le<uint16_t>(); }
    uint32_t u32() { return le<uint32_t>(); }
    uint64_t u64() { return le<uint64_t>(); }
    double f64() { return std::bit_cast<double>(u64()); }
    bool b() { return u8() != 0; }
    /** Length-prefixed (u64) string of at most @p max_len bytes. */
    std::string
    str(uint64_t max_len = UINT64_MAX)
    {
        const uint64_t n = u64();
        if (n > max_len)
            SPT_FATAL(what_ << " corrupt: implausible string length "
                            << n);
        need(n);
        std::string s(buf_.substr(pos_, n));
        pos_ += n;
        return s;
    }
    void
    bytes(void *out, size_t len)
    {
        need(len);
        buf_.copy(static_cast<char *>(out), len, pos_);
        pos_ += len;
    }

    /** SPT_FATAL unless @p count items of at least @p item_bytes
     *  each still fit in the input: the check a decoder makes
     *  before it allocates for a count it just read. */
    void
    needItems(uint64_t count, uint64_t item_bytes)
    {
        if (count > remaining() / item_bytes)
            SPT_FATAL(what_ << " truncated (" << count
                            << " entries announced)");
    }

    size_t pos() const { return pos_; }
    size_t remaining() const { return buf_.size() - pos_; }
    bool atEnd() const { return pos_ == buf_.size(); }
    const char *what() const { return what_; }

  private:
    void
    need(uint64_t n) const
    {
        if (n > remaining())
            SPT_FATAL(what_ << " truncated");
    }
    template <typename T>
    T
    le()
    {
        need(sizeof(T));
        uint64_t v = 0;
        for (size_t i = 0; i < sizeof(T); ++i)
            v |= uint64_t{static_cast<uint8_t>(buf_[pos_ + i])}
                 << (8 * i);
        pos_ += sizeof(T);
        return static_cast<T>(v);
    }

    std::string_view buf_;
    size_t pos_ = 0;
    const char *what_;
};

/** The rest of @p is, read into memory for a BinReader. */
inline std::string
readAll(std::istream &is)
{
    return std::string(std::istreambuf_iterator<char>(is),
                       std::istreambuf_iterator<char>());
}

} // namespace spt

#endif // SPT_COMMON_BINIO_H
