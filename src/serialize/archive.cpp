#include "serialize/archive.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>

namespace gatpg::serialize {
namespace {

constexpr char kMagic[8] = {'G', 'A', 'T', 'P', 'G', 'S', 'S', '1'};
constexpr std::uint32_t kEndianSentinel = 0x01020304u;

// Header: magic(8) + version(4) + sentinel(4).  Trailer: digest(8).
constexpr std::size_t kHeaderSize = 16;
constexpr std::size_t kTrailerSize = 8;

void append_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void append_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void write_u32_at(std::vector<std::uint8_t>& b, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void write_u64_at(std::vector<std::uint8_t>& b, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) b[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint32_t read_u32_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(b[at + i]) << (8 * i);
  return v;
}

std::uint64_t read_u64_at(const std::vector<std::uint8_t>& b, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(b[at + i]) << (8 * i);
  return v;
}

}  // namespace

Writer::Writer() { payload_.reserve(4096); }

void Writer::u8(std::uint8_t v) { payload_.push_back(v); }

void Writer::u32(std::uint32_t v) { append_u32(payload_, v); }

void Writer::u64(std::uint64_t v) { append_u64(payload_, v); }

void Writer::i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }

void Writer::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void Writer::bytes(const void* data, std::size_t n) {
  u64(n);
  const auto* p = static_cast<const std::uint8_t*>(data);
  payload_.insert(payload_.end(), p, p + n);
}

void Writer::str(const std::string& s) { bytes(s.data(), s.size()); }

void Writer::begin_section(const char (&tag)[5]) {
  if (section_open_) throw SnapshotError("archive: nested section");
  for (int i = 0; i < 4; ++i) payload_.push_back(static_cast<std::uint8_t>(tag[i]));
  open_section_len_at_ = payload_.size();
  u64(0);  // length slot, patched by end_section
  section_open_ = true;
}

void Writer::end_section() {
  if (!section_open_) throw SnapshotError("archive: end_section without begin");
  write_u64_at(payload_, open_section_len_at_,
               payload_.size() - (open_section_len_at_ + 8));
  section_open_ = false;
}

std::uint64_t Writer::payload_digest() const {
  Digest d;
  d.add_bytes(payload_.data(), payload_.size());
  return d.value();
}

std::vector<std::uint8_t> Writer::finish() const {
  if (section_open_) throw SnapshotError("archive: finish with open section");
  // Sized up front and filled at fixed offsets: GCC 12 reports appends after
  // reserve() here as buffer overflows (-Wstringop-overflow false positive).
  std::vector<std::uint8_t> out(kHeaderSize + payload_.size() + kTrailerSize);
  std::memcpy(out.data(), kMagic, 8);
  write_u32_at(out, 8, kFormatVersion);
  write_u32_at(out, 12, kEndianSentinel);
  std::copy(payload_.begin(), payload_.end(), out.begin() + kHeaderSize);
  write_u64_at(out, kHeaderSize + payload_.size(), payload_digest());
  return out;
}

void Writer::write_file(const std::string& path) const {
  const std::vector<std::uint8_t> buf = finish();
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) throw SnapshotError("archive: cannot open " + tmp + " for writing");
  const std::size_t wrote = buf.empty() ? 0 : std::fwrite(buf.data(), 1, buf.size(), f);
  const bool flushed = std::fflush(f) == 0;
  const bool closed = std::fclose(f) == 0;
  if (wrote != buf.size() || !flushed || !closed) {
    std::remove(tmp.c_str());
    throw SnapshotError("archive: short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw SnapshotError("archive: cannot rename " + tmp + " to " + path);
  }
}

Reader::Reader(std::vector<std::uint8_t> buffer) : buffer_(std::move(buffer)) {
  if (buffer_.size() < kHeaderSize + kTrailerSize)
    throw SnapshotError("archive: truncated (smaller than header + trailer)");
  if (std::memcmp(buffer_.data(), kMagic, 8) != 0)
    throw SnapshotError("archive: bad magic");
  const std::uint32_t version = read_u32_at(buffer_, 8);
  if (version != kFormatVersion)
    throw SnapshotError("archive: unsupported format version " + std::to_string(version));
  if (read_u32_at(buffer_, 12) != kEndianSentinel)
    throw SnapshotError("archive: endianness sentinel mismatch");
  pos_ = kHeaderSize;
  end_ = buffer_.size() - kTrailerSize;
  Digest d;
  d.add_bytes(buffer_.data() + pos_, end_ - pos_);
  if (d.value() != read_u64_at(buffer_, end_))
    throw SnapshotError("archive: payload digest mismatch (corrupt snapshot)");
}

Reader Reader::from_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) throw SnapshotError("archive: cannot open " + path);
  std::vector<std::uint8_t> buf;
  std::uint8_t chunk[1 << 16];
  std::size_t n;
  while ((n = std::fread(chunk, 1, sizeof chunk, f)) > 0)
    buf.insert(buf.end(), chunk, chunk + n);
  const bool read_error = std::ferror(f) != 0;
  std::fclose(f);
  if (read_error) throw SnapshotError("archive: read error on " + path);
  return Reader(std::move(buf));
}

void Reader::need(std::size_t n) const {
  // pos_ never passes the limit, so limit - pos_ cannot underflow; comparing
  // this way keeps a corrupt length near SIZE_MAX from wrapping pos_ + n.
  const std::size_t limit = in_section_ ? section_end_ : end_;
  if (n > limit - pos_)
    throw SnapshotError("archive: truncated read (need " + std::to_string(n) + " bytes)");
}

std::uint64_t Reader::count(std::size_t min_elem_bytes) {
  const std::uint64_t n = u64();
  const std::size_t limit = in_section_ ? section_end_ : end_;
  const std::size_t per = min_elem_bytes == 0 ? 1 : min_elem_bytes;
  if (n > (limit - pos_) / per)
    throw SnapshotError("archive: element count " + std::to_string(n) +
                        " exceeds remaining payload");
  return n;
}

std::uint8_t Reader::u8() {
  need(1);
  return buffer_[pos_++];
}

std::uint32_t Reader::u32() {
  need(4);
  const std::uint32_t v = read_u32_at(buffer_, pos_);
  pos_ += 4;
  return v;
}

std::uint64_t Reader::u64() {
  need(8);
  const std::uint64_t v = read_u64_at(buffer_, pos_);
  pos_ += 8;
  return v;
}

std::int64_t Reader::i64() { return static_cast<std::int64_t>(u64()); }

double Reader::f64() { return std::bit_cast<double>(u64()); }

std::vector<std::uint8_t> Reader::bytes() {
  const std::uint64_t n = u64();
  need(n);
  std::vector<std::uint8_t> out(buffer_.begin() + pos_, buffer_.begin() + pos_ + n);
  pos_ += n;
  return out;
}

std::string Reader::str() {
  const std::uint64_t n = u64();
  need(n);
  std::string out(reinterpret_cast<const char*>(buffer_.data() + pos_), n);
  pos_ += n;
  return out;
}

void Reader::enter_section(const char (&tag)[5]) {
  if (in_section_) throw SnapshotError("archive: nested section");
  need(4 + 8);
  char got[5] = {0, 0, 0, 0, 0};
  for (int i = 0; i < 4; ++i) got[i] = static_cast<char>(buffer_[pos_ + i]);
  if (std::memcmp(got, tag, 4) != 0)
    throw SnapshotError(std::string("archive: expected section ") + tag + ", found " + got);
  pos_ += 4;
  const std::uint64_t len = u64();
  if (len > end_ - pos_) throw SnapshotError("archive: section length exceeds payload");
  section_end_ = pos_ + len;
  in_section_ = true;
}

void Reader::leave_section() {
  if (!in_section_) throw SnapshotError("archive: leave_section without enter");
  if (pos_ != section_end_)
    throw SnapshotError("archive: section not fully consumed (" +
                        std::to_string(section_end_ - pos_) + " bytes left)");
  in_section_ = false;
}

}  // namespace gatpg::serialize
