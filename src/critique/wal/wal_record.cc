#include "critique/wal/wal_record.h"

#include <cstring>

namespace critique {
namespace {

// --- little-endian fixed-width primitives ----------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  out->append(b, 8);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Sequential reader over a payload; every Take checks bounds and flips
/// `ok` sticky-false on underrun, so decode loops stay linear.
struct Cursor {
  const std::string& buf;
  size_t pos = 0;
  bool ok = true;

  explicit Cursor(const std::string& b) : buf(b) {}

  const char* Take(size_t n) {
    if (!ok || buf.size() - pos < n) {
      ok = false;
      return nullptr;
    }
    const char* p = buf.data() + pos;
    pos += n;
    return p;
  }
  uint8_t U8() {
    const char* p = Take(1);
    return p ? static_cast<uint8_t>(*p) : 0;
  }
  uint32_t U32() {
    const char* p = Take(4);
    if (!p) return 0;
    uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
    return v;
  }
  uint64_t U64() {
    const char* p = Take(8);
    if (!p) return 0;
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | static_cast<uint8_t>(p[i]);
    return v;
  }
  std::string String() {
    uint32_t n = U32();
    const char* p = Take(n);
    return p ? std::string(p, n) : std::string();
  }
};

// --- Value / Row -----------------------------------------------------------

enum ValueTag : uint8_t {
  kTagNull = 0,
  kTagInt = 1,
  kTagDouble = 2,
  kTagBool = 3,
  kTagString = 4,
};

void PutValue(std::string* out, const Value& v) {
  if (v.is_null()) {
    PutU8(out, kTagNull);
  } else if (v.is_int()) {
    PutU8(out, kTagInt);
    PutU64(out, static_cast<uint64_t>(v.AsInt()));
  } else if (v.is_double()) {
    PutU8(out, kTagDouble);
    uint64_t bits;
    double d = v.AsDoubleExact();
    std::memcpy(&bits, &d, sizeof(bits));
    PutU64(out, bits);
  } else if (v.is_bool()) {
    PutU8(out, kTagBool);
    PutU8(out, v.AsBool() ? 1 : 0);
  } else {
    PutU8(out, kTagString);
    PutString(out, v.AsString());
  }
}

Value TakeValue(Cursor* c) {
  switch (c->U8()) {
    case kTagNull:
      return Value();
    case kTagInt:
      return Value(static_cast<int64_t>(c->U64()));
    case kTagDouble: {
      uint64_t bits = c->U64();
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case kTagBool:
      return Value(c->U8() != 0);
    case kTagString:
      return Value(c->String());
    default:
      c->ok = false;
      return Value();
  }
}

void PutRow(std::string* out, const Row& row) {
  const auto& cols = row.columns();
  PutU32(out, static_cast<uint32_t>(cols.size()));
  for (const auto& [name, value] : cols) {
    PutString(out, name);
    PutValue(out, value);
  }
}

Row TakeRow(Cursor* c) {
  Row row;
  uint32_t n = c->U32();
  for (uint32_t i = 0; i < n && c->ok; ++i) {
    std::string name = c->String();
    row.Set(name, TakeValue(c));
  }
  return row;
}

}  // namespace

const char* WalRecordTypeName(WalRecordType t) {
  switch (t) {
    case WalRecordType::kBegin:
      return "begin";
    case WalRecordType::kWriteSet:
      return "write-set";
    case WalRecordType::kPrepare:
      return "prepare";
    case WalRecordType::kCommit:
      return "commit";
    case WalRecordType::kAbort:
      return "abort";
    case WalRecordType::kDecision:
      return "decision";
    case WalRecordType::kLoad:
      return "load";
  }
  return "unknown";
}

uint32_t WalCrc32(const void* data, size_t len) {
  // Table-driven CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) —
  // the torn-tail / corruption guard of the record framing.
  static const uint32_t* kTable = [] {
    static uint32_t table[256];
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
      }
      table[i] = c;
    }
    return table;
  }();
  uint32_t crc = 0xFFFFFFFFu;
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    crc = kTable[(crc ^ p[i]) & 0xff] ^ (crc >> 8);
  }
  return crc ^ 0xFFFFFFFFu;
}

std::vector<WalWriteImage> WalImagesFromMap(
    const std::map<ItemId, std::optional<Row>>& redo) {
  std::vector<WalWriteImage> images;
  images.reserve(redo.size());
  for (const auto& [id, row] : redo) images.push_back({id, row});
  return images;
}

std::string EncodeWalRecord(const WalRecord& rec) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(rec.type));
  PutU64(&out, rec.txn);
  switch (rec.type) {
    case WalRecordType::kBegin:
    case WalRecordType::kPrepare:
    case WalRecordType::kAbort:
      break;
    case WalRecordType::kWriteSet:
    case WalRecordType::kLoad:
      PutU32(&out, static_cast<uint32_t>(rec.images.size()));
      for (const WalWriteImage& img : rec.images) {
        PutString(&out, img.id);
        PutU8(&out, img.row.has_value() ? 1 : 0);
        if (img.row.has_value()) PutRow(&out, *img.row);
      }
      break;
    case WalRecordType::kCommit:
      PutU64(&out, rec.commit_ts);
      break;
    case WalRecordType::kDecision:
      PutU32(&out, static_cast<uint32_t>(rec.participants.size()));
      for (uint32_t shard : rec.participants) PutU32(&out, shard);
      break;
  }
  return out;
}

Result<WalRecord> DecodeWalRecord(const std::string& payload) {
  Cursor c(payload);
  WalRecord rec;
  const uint8_t type = c.U8();
  rec.type = static_cast<WalRecordType>(type);
  rec.txn = c.U64();
  switch (rec.type) {
    case WalRecordType::kBegin:
    case WalRecordType::kPrepare:
    case WalRecordType::kAbort:
      break;
    case WalRecordType::kWriteSet:
    case WalRecordType::kLoad: {
      uint32_t n = c.U32();
      for (uint32_t i = 0; i < n && c.ok; ++i) {
        WalWriteImage img;
        img.id = c.String();
        if (c.U8() != 0) img.row = TakeRow(&c);
        rec.images.push_back(std::move(img));
      }
      break;
    }
    case WalRecordType::kCommit:
      rec.commit_ts = c.U64();
      break;
    case WalRecordType::kDecision: {
      const uint32_t n = c.U32();
      // One allocation per record: a count the payload cannot hold is
      // corruption, refused before anything is reserved.
      if (n > (payload.size() - c.pos) / 4) c.ok = false;
      if (!c.ok) break;
      rec.participants.resize(n);
      for (uint32_t& shard : rec.participants) shard = c.U32();
      break;
    }
    default:
      return Status::InvalidArgument("wal: unknown record type " +
                                     std::to_string(type));
  }
  if (!c.ok) return Status::InvalidArgument("wal: truncated record payload");
  if (c.pos != payload.size()) {
    return Status::InvalidArgument("wal: trailing bytes in record payload");
  }
  return rec;
}

void FrameWalRecord(const WalRecord& rec, std::string* out) {
  const std::string payload = EncodeWalRecord(rec);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU32(out, WalCrc32(payload.data(), payload.size()));
  out->append(payload);
}

WalReadResult ReadWalBytes(const std::string& bytes) {
  WalReadResult out;
  out.total_bytes = bytes.size();
  size_t pos = 0;
  while (pos < bytes.size()) {
    // Framing header: [u32 len][u32 crc].  Anything that doesn't parse
    // cleanly from here to the end of the record is a torn tail: the
    // prefix before it is the durable log, the rest never finished
    // reaching the disk.
    if (bytes.size() - pos < 8) break;
    Cursor h(bytes);
    h.pos = pos;
    const uint32_t len = h.U32();
    const uint32_t crc = h.U32();
    if (bytes.size() - h.pos < len) break;
    const std::string payload = bytes.substr(h.pos, len);
    if (WalCrc32(payload.data(), payload.size()) != crc) break;
    Result<WalRecord> rec = DecodeWalRecord(payload);
    if (!rec.ok()) break;
    out.records.push_back(std::move(rec).value());
    pos = h.pos + len;
    out.valid_bytes = pos;
  }
  out.torn_tail = out.valid_bytes != out.total_bytes;
  return out;
}

}  // namespace critique
