#include "pgrid/backend_disk.h"

#include <algorithm>
#include <set>
#include <utility>

#include "common/codec.h"
#include "common/crc32.h"
#include "common/logging.h"
#include "pgrid/run_merge.h"
#include "pgrid/storage_backend.h"

namespace unistore {
namespace pgrid {
namespace storage {

std::string RunFileName(uint64_t file_number) {
  return "run-" + std::to_string(file_number);
}

bool ParseRunFileName(std::string_view name, uint64_t* file_number) {
  constexpr std::string_view kPrefix = "run-";
  if (name.size() <= kPrefix.size() ||
      name.compare(0, kPrefix.size(), kPrefix) != 0) {
    return false;
  }
  uint64_t n = 0;
  for (size_t i = kPrefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return false;
    n = n * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  *file_number = n;
  return true;
}

// ---------------------------------------------------------------------------
// BlockCache

BlockCache::BlockHandle BlockCache::Lookup(uint64_t file_number,
                                           uint32_t block_index) {
  auto it = index_.find(KeyOf(file_number, block_index));
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  ++hits_;
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->second;
}

void BlockCache::Insert(uint64_t file_number, uint32_t block_index,
                        BlockHandle block) {
  const uint64_t key = KeyOf(file_number, block_index);
  auto it = index_.find(key);
  if (it != index_.end()) {
    charge_ -= it->second->second->size();
    lru_.erase(it->second);
    index_.erase(it);
  }
  charge_ += block->size();
  lru_.emplace_front(key, std::move(block));
  index_[key] = lru_.begin();
  while (charge_ > capacity_ && lru_.size() > 1) {
    auto& victim = lru_.back();
    charge_ -= victim.second->size();
    index_.erase(victim.first);
    lru_.pop_back();
  }
}

// ---------------------------------------------------------------------------
// Block payload validation

Status ValidateBlockPayload(std::string_view payload) {
  size_t pos = 0;
  size_t index = 0;
  size_t prev_key_len = 0;
  // Bounds-checked varint (the arena helper assumes trusted bytes).
  auto read_varint = [&payload, &pos](uint64_t* out) {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos >= payload.size() || shift > 63) return false;
      const uint8_t byte = static_cast<uint8_t>(payload[pos++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) break;
      shift += 7;
    }
    *out = v;
    return true;
  };
  auto corrupt = [&pos](const char* what) {
    return Status::Corruption("run block record ", what, " at offset ", pos);
  };
  while (pos < payload.size()) {
    uint64_t shared = 0;
    uint64_t bit_len = 0;
    if (!read_varint(&shared) || !read_varint(&bit_len)) {
      return corrupt("key lengths");
    }
    if (bit_len > kKeyBits) return corrupt("key length");
    const size_t key_len = Key::ByteLength(bit_len);
    if (index == 0 && shared != 0) return corrupt("chain start");
    // Only whole bytes are shared, so a partial last byte is stored here
    // and its padding bits are checked.
    if (shared > prev_key_len || shared > bit_len / 8) {
      return corrupt("shared prefix");
    }
    const size_t suffix = key_len - shared;
    if (suffix > payload.size() - pos) return corrupt("key suffix");
    pos += suffix;
    if (!Key::PaddingIsZero(bit_len,
                            static_cast<unsigned char>(payload[pos - 1]))) {
      return corrupt("key padding");
    }
    uint64_t id_len = 0;
    if (!read_varint(&id_len) || id_len > payload.size() - pos) {
      return corrupt("id");
    }
    pos += id_len;
    uint64_t version = 0;
    if (!read_varint(&version)) return corrupt("version");
    if (pos >= payload.size()) return corrupt("flags");
    ++pos;
    prev_key_len = key_len;
    ++index;
  }
  if (index == 0) return Status::Corruption("empty run block");
  return Status::OK();
}

// ---------------------------------------------------------------------------
// DiskRunWriter

DiskRunWriter::DiskRunWriter(Env* env, std::string path, size_t block_bytes,
                             size_t expected_entries)
    : env_(env),
      path_(std::move(path)),
      block_bytes_(block_bytes),
      filter_(expected_entries) {
  auto file = env_->NewWritableFile(path_, /*truncate=*/true);
  if (!file.ok()) {
    status_ = file.status();
    return;
  }
  file_ = std::move(file).value();
  BufferWriter header;
  header.PutU32(kRunMagic);
  header.PutU32(kRunFormatVersion);
  status_ = file_->Append(header.buffer());
  offset_ = kRunHeaderBytes;
}

void DiskRunWriter::Add(const EntryView& e) {
  if (!status_.ok()) return;
  if (!block_.empty() && block_.size() >= block_bytes_) {
    FlushBlock();
    if (!status_.ok()) return;
  }
  approx_bytes_ += ApproxEntryBytes(e);
  // Each block starts a fresh prefix chain.
  if (block_.empty()) {
    first_key_ = e.key;
    prev_key_ = Key();
  }
  run_format::AppendRecord(&block_, prev_key_, e);
  filter_.Add(SlotHash(e.key, e.id));
  prev_key_ = e.key;
  ++count_;
}

void DiskRunWriter::FlushBlock() {
  if (block_.empty()) return;
  BufferWriter frame;
  frame.Reserve(8 + block_.size());
  frame.PutU32(static_cast<uint32_t>(block_.size()));
  frame.PutU32(MaskedCrc32c(block_));
  frame.PutRaw(block_);
  status_ = file_->Append(frame.buffer());
  if (!status_.ok()) return;
  DiskRun::BlockMeta meta;
  meta.offset = offset_;
  meta.payload_len = static_cast<uint32_t>(block_.size());
  meta.first_key = first_key_;
  blocks_.push_back(std::move(meta));
  offset_ += 8 + block_.size();
  block_.clear();
}

Status DiskRunWriter::Finish() {
  if (!status_.ok()) return status_;
  FlushBlock();
  if (!status_.ok()) return status_;
  BufferWriter index;
  index.PutVarint(blocks_.size());
  for (const DiskRun::BlockMeta& b : blocks_) {
    index.PutVarint(b.offset);
    index.PutVarint(b.payload_len);
    EncodeKey(b.first_key, &index);
  }
  index.PutVarint(count_);
  const uint64_t index_offset = offset_;
  BufferWriter tail;
  tail.PutRaw(index.buffer());
  tail.PutU64(index_offset);
  tail.PutU32(MaskedCrc32c(index.buffer()));
  tail.PutU32(kRunMagic);
  status_ = file_->Append(tail.buffer());
  if (!status_.ok()) return status_;
  offset_ += tail.size();
  status_ = file_->Sync();
  if (!status_.ok()) return status_;
  status_ = file_->Close();
  return status_;
}

// ---------------------------------------------------------------------------
// DiskRun

DiskRun::DiskRun(std::string path, uint64_t file_number, BlockCache* cache,
                 std::unique_ptr<RandomAccessFile> file,
                 std::vector<BlockMeta> blocks, uint64_t entry_count,
                 uint64_t file_bytes, SlotFilter filter)
    : path_(std::move(path)),
      file_number_(file_number),
      cache_(cache),
      file_(std::move(file)),
      blocks_(std::move(blocks)),
      entry_count_(entry_count),
      file_bytes_(file_bytes),
      filter_(std::move(filter)) {}

Result<std::shared_ptr<DiskRun>> DiskRun::Open(Env* env,
                                               const std::string& path,
                                               uint64_t file_number,
                                               BlockCache* cache) {
  UNISTORE_ASSIGN_OR_RETURN(uint64_t size, env->FileSize(path));
  if (size < kRunHeaderBytes + kRunTailBytes) {
    return Status::Corruption("run file too short: ", path, " (", size,
                              " bytes)");
  }
  UNISTORE_ASSIGN_OR_RETURN(std::unique_ptr<RandomAccessFile> file,
                            env->NewRandomAccessFile(path));
  std::string header;
  UNISTORE_RETURN_IF_ERROR(file->Read(0, kRunHeaderBytes, &header));
  BufferReader hr(header);
  UNISTORE_ASSIGN_OR_RETURN(uint32_t magic, hr.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(uint32_t format, hr.GetU32());
  if (magic != kRunMagic || format != kRunFormatVersion) {
    return Status::Corruption("bad run header: ", path);
  }
  std::string tail;
  UNISTORE_RETURN_IF_ERROR(
      file->Read(size - kRunTailBytes, kRunTailBytes, &tail));
  if (tail.size() != kRunTailBytes) {
    return Status::Corruption("truncated run tail: ", path);
  }
  BufferReader tr(tail);
  UNISTORE_ASSIGN_OR_RETURN(uint64_t index_offset, tr.GetU64());
  UNISTORE_ASSIGN_OR_RETURN(uint32_t index_crc, tr.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(uint32_t tail_magic, tr.GetU32());
  if (tail_magic != kRunMagic || index_offset < kRunHeaderBytes ||
      index_offset > size - kRunTailBytes) {
    return Status::Corruption("bad run tail: ", path);
  }
  const size_t index_len =
      static_cast<size_t>(size - kRunTailBytes - index_offset);
  std::string index;
  UNISTORE_RETURN_IF_ERROR(file->Read(index_offset, index_len, &index));
  if (index.size() != index_len || MaskedCrc32c(index) != index_crc) {
    return Status::Corruption("run index checksum mismatch: ", path);
  }
  BufferReader ir(index);
  UNISTORE_ASSIGN_OR_RETURN(uint64_t n_blocks, ir.GetVarint());
  std::vector<BlockMeta> blocks;
  blocks.reserve(static_cast<size_t>(n_blocks));
  uint64_t prev_end = kRunHeaderBytes;
  for (uint64_t i = 0; i < n_blocks; ++i) {
    BlockMeta meta;
    UNISTORE_ASSIGN_OR_RETURN(meta.offset, ir.GetVarint());
    UNISTORE_ASSIGN_OR_RETURN(uint64_t payload_len, ir.GetVarint());
    meta.payload_len = static_cast<uint32_t>(payload_len);
    UNISTORE_ASSIGN_OR_RETURN(meta.first_key, DecodeKey(&ir));
    if (meta.offset != prev_end ||
        meta.offset + 8 + payload_len > index_offset) {
      return Status::Corruption("run index block ", i, " out of bounds: ",
                                path);
    }
    prev_end = meta.offset + 8 + payload_len;
    blocks.push_back(std::move(meta));
  }
  uint64_t entry_count = 0;
  UNISTORE_ASSIGN_OR_RETURN(entry_count, ir.GetVarint());
  if (!ir.AtEnd() || prev_end != index_offset) {
    return Status::Corruption("run index trailing bytes: ", path);
  }
  auto run = std::make_shared<DiskRun>(path, file_number, cache,
                                       std::move(file), std::move(blocks),
                                       entry_count, size, SlotFilter());
  // The run file holds no filter: one pass over the records rebuilds it.
  SlotFilter filter(static_cast<size_t>(entry_count));
  DiskRunCursor cursor;
  for (cursor.Seek(run.get(), Key()); cursor.valid(); cursor.Advance()) {
    filter.Add(SlotHash(cursor.view().key, cursor.view().id));
  }
  if (run->status_.ok()) run->filter_ = std::move(filter);
  return run;
}

size_t DiskRun::metadata_bytes() const {
  return sizeof(DiskRun) + blocks_.capacity() * sizeof(BlockMeta) +
         filter_.bytes();
}

BlockCache::BlockHandle DiskRun::LoadBlock(uint32_t block_index) const {
  if (!status_.ok()) return nullptr;
  BlockCache::BlockHandle cached = cache_->Lookup(file_number_, block_index);
  if (cached != nullptr) return cached;
  const BlockMeta& meta = blocks_[block_index];
  std::string frame;
  const Status read = file_->Read(meta.offset, 8 + meta.payload_len, &frame);
  if (!read.ok()) {
    status_ = read;
    return nullptr;
  }
  if (frame.size() != 8 + static_cast<size_t>(meta.payload_len)) {
    status_ = Status::Corruption("short block read: ", path_, " block ",
                                 block_index);
    return nullptr;
  }
  BufferReader fr(frame);
  const uint32_t stored_len = fr.GetU32().value_or(0);
  const uint32_t stored_crc = fr.GetU32().value_or(0);
  auto block = std::make_shared<std::string>(frame.substr(8));
  if (stored_len != meta.payload_len || MaskedCrc32c(*block) != stored_crc) {
    status_ = Status::Corruption("block checksum mismatch: ", path_,
                                 " block ", block_index);
    return nullptr;
  }
  const Status valid = ValidateBlockPayload(*block);
  if (!valid.ok()) {
    status_ = Status::Corruption(valid.message(), " in ", path_, " block ",
                                 block_index);
    return nullptr;
  }
  cache_->Insert(file_number_, block_index, block);
  return block;
}

int DiskRun::CompareBlock(uint32_t index, const Key& key,
                          std::string_view id) const {
  const int c = blocks_[index].first_key.Compare(key);
  if (c != 0) return c;
  // A block's first record starts a prefix chain: its id is stored raw.
  const BlockCache::BlockHandle block = LoadBlock(index);
  if (block == nullptr) return 1;
  return run_format::CompareChainStart(*block, 0, key, id);
}

bool DiskRun::FindSlot(const SlotProbe& probe, uint64_t* version,
                       bool* deleted) const {
  if (!filter_.MayContain(probe.hash)) return false;
  // Last block whose first slot is at or below the target; the target, if
  // present, sits in that block.
  size_t lo = 0;
  size_t hi = blocks_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (CompareBlock(static_cast<uint32_t>(mid), probe.key, probe.id) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  if (lo == 0) return false;  // Below the run's first slot (or empty).
  DiskRunCursor c;
  c.JumpToBlock(this, static_cast<uint32_t>(lo - 1));
  return AdvanceToSlot(&c, probe.key, probe.id, version, deleted);
}

// ---------------------------------------------------------------------------
// DiskRunCursor

void DiskRunCursor::DecodeRecord() {
  next_pos_ = pos_;
  run_format::DecodeRecord(*block_, &next_pos_, &view_);
}

void DiskRunCursor::Seek(const DiskRun* run, const Key& target) {
  run_ = run;
  valid_ = run != nullptr && !run->blocks_.empty();
  if (!valid_) return;
  // First block whose first key >= target; the target may sit in the
  // preceding block (its first key is smaller but its tail may not be).
  const auto& blocks = run->blocks_;
  size_t lo = 0;
  size_t hi = blocks.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (blocks[mid].first_key < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  JumpToBlock(run, static_cast<uint32_t>(lo > 0 ? lo - 1 : 0));
  while (valid_ && view_.key < target) Advance();
}

void DiskRunCursor::JumpToBlock(const DiskRun* run, uint32_t block_index) {
  run_ = run;
  block_ = run->LoadBlock(block_index);
  valid_ = block_ != nullptr;
  if (!valid_) return;
  block_index_ = block_index;
  pos_ = 0;
  DecodeRecord();
}

void DiskRunCursor::Advance() {
  if (!valid_) return;
  if (next_pos_ < block_->size()) {
    pos_ = next_pos_;
    DecodeRecord();
    return;
  }
  if (block_index_ + 1 < run_->blocks_.size()) {
    JumpToBlock(run_, block_index_ + 1);
  } else {
    valid_ = false;
  }
}

// ---------------------------------------------------------------------------
// Manifest codec

namespace manifest {

std::string EncodeFramed(const Record& record) {
  BufferWriter payload;
  payload.PutU8(record.type);
  switch (record.type) {
    case kSnapshot:
      payload.PutVarint(record.next_file_number);
      payload.PutVarint(record.runs.size());
      for (uint64_t fn : record.runs) payload.PutVarint(fn);
      break;
    case kAddRun:
      payload.PutVarint(record.file_number);
      payload.PutU8(record.origin);
      break;
    case kReplace:
      payload.PutVarint(record.first);
      payload.PutVarint(record.removed);
      payload.PutVarint(record.file_number);
      break;
  }
  BufferWriter frame;
  frame.Reserve(8 + payload.size());
  frame.PutU32(static_cast<uint32_t>(payload.size()));
  frame.PutU32(MaskedCrc32c(payload.buffer()));
  frame.PutRaw(payload.buffer());
  return frame.Release();
}

Result<Record> DecodeFramedAt(std::string_view data, size_t* pos) {
  if (*pos == data.size()) return Status::NotFound("end of manifest");
  if (data.size() - *pos < 8) {
    return Status::Corruption("torn manifest frame header");
  }
  BufferReader fr(data.substr(*pos, 8));
  UNISTORE_ASSIGN_OR_RETURN(uint32_t len, fr.GetU32());
  UNISTORE_ASSIGN_OR_RETURN(uint32_t crc, fr.GetU32());
  if (len > data.size() - *pos - 8) {
    return Status::Corruption("torn manifest record body");
  }
  const std::string_view body = data.substr(*pos + 8, len);
  if (MaskedCrc32c(body) != crc) {
    return Status::Corruption("manifest record checksum mismatch");
  }
  BufferReader br(body);
  Record record;
  UNISTORE_ASSIGN_OR_RETURN(record.type, br.GetU8());
  switch (record.type) {
    case kSnapshot: {
      UNISTORE_ASSIGN_OR_RETURN(record.next_file_number, br.GetVarint());
      UNISTORE_ASSIGN_OR_RETURN(uint64_t n, br.GetVarint());
      if (n > len) return Status::Corruption("manifest snapshot run count");
      record.runs.reserve(static_cast<size_t>(n));
      for (uint64_t i = 0; i < n; ++i) {
        UNISTORE_ASSIGN_OR_RETURN(uint64_t fn, br.GetVarint());
        record.runs.push_back(fn);
      }
      break;
    }
    case kAddRun: {
      UNISTORE_ASSIGN_OR_RETURN(record.file_number, br.GetVarint());
      UNISTORE_ASSIGN_OR_RETURN(record.origin, br.GetU8());
      break;
    }
    case kReplace: {
      UNISTORE_ASSIGN_OR_RETURN(record.first, br.GetVarint());
      UNISTORE_ASSIGN_OR_RETURN(record.removed, br.GetVarint());
      UNISTORE_ASSIGN_OR_RETURN(record.file_number, br.GetVarint());
      break;
    }
    default:
      return Status::Corruption("unknown manifest record type ",
                                static_cast<int>(record.type));
  }
  if (!br.AtEnd()) return Status::Corruption("manifest record trailing bytes");
  *pos += 8 + len;
  return record;
}

}  // namespace manifest
}  // namespace storage

// ---------------------------------------------------------------------------
// DiskBackend

namespace {

using storage::BlockCache;
using storage::DiskRun;
using storage::DiskRunCursor;
using storage::DiskRunWriter;
using storage::Env;
using storage::kManifestName;
using storage::kManifestTmpName;
using storage::ParseRunFileName;
using storage::RunFileName;
namespace manifest = storage::manifest;

// Mirrors kMaxMergeFanIn in storage_backend.cc: one beyond the transient
// (max_runs + 1)-run state a flush-triggered compaction can merge.
constexpr size_t kMaxMergeFanIn = 16;

}  // namespace

DiskBackend::DiskBackend(const DiskBackendOptions& options)
    : options_(options),
      env_(options.env != nullptr ? options.env : Env::Default()),
      cache_(options.block_cache_bytes) {}

Result<std::unique_ptr<DiskBackend>> DiskBackend::Open(
    const DiskBackendOptions& options) {
  if (options.data_dir.empty()) {
    return Status::InvalidArgument("disk backend requires a data_dir");
  }
  std::unique_ptr<DiskBackend> backend(new DiskBackend(options));
  UNISTORE_RETURN_IF_ERROR(backend->Recover());
  return backend;
}

std::string DiskBackend::PathOf(const std::string& name) const {
  return options_.data_dir + "/" + name;
}

Status DiskBackend::Recover() {
  UNISTORE_RETURN_IF_ERROR(env_->CreateDir(options_.data_dir));

  // Replay the manifest up to the first torn or corrupt record; what came
  // before is the acknowledged state, everything after never finished
  // committing.
  std::vector<uint64_t> files;
  uint64_t recorded_next = 1;
  const std::string manifest_path = PathOf(kManifestName);
  if (env_->FileExists(manifest_path)) {
    UNISTORE_ASSIGN_OR_RETURN(uint64_t size, env_->FileSize(manifest_path));
    UNISTORE_ASSIGN_OR_RETURN(std::unique_ptr<storage::RandomAccessFile> file,
                              env_->NewRandomAccessFile(manifest_path));
    std::string data;
    UNISTORE_RETURN_IF_ERROR(
        file->Read(0, static_cast<size_t>(size), &data));
    size_t pos = 0;
    while (true) {
      Result<manifest::Record> record = manifest::DecodeFramedAt(data, &pos);
      if (!record.ok()) {
        if (record.status().code() == StatusCode::kCorruption) {
          UNISTORE_LOG(kWarning)
              << "manifest " << manifest_path << ": discarding tail at byte "
              << pos << " (" << record.status().message() << ")";
        }
        break;  // Clean end (NotFound) or torn tail.
      }
      const manifest::Record& r = *record;
      switch (r.type) {
        case manifest::kSnapshot:
          recorded_next = r.next_file_number;
          files = r.runs;
          break;
        case manifest::kAddRun:
          files.push_back(r.file_number);
          break;
        case manifest::kReplace: {
          if (r.first + r.removed > files.size()) {
            UNISTORE_LOG(kWarning)
                << "manifest " << manifest_path
                << ": replace record out of range; discarding tail";
            pos = data.size();
            break;
          }
          auto begin = files.begin() + static_cast<ptrdiff_t>(r.first);
          files.erase(begin, begin + static_cast<ptrdiff_t>(r.removed));
          if (r.file_number != 0) {
            files.insert(files.begin() + static_cast<ptrdiff_t>(r.first),
                         r.file_number);
          }
          break;
        }
      }
      if (pos >= data.size()) break;
    }
  }

  next_file_number_ = std::max<uint64_t>(recorded_next, 1);
  for (uint64_t fn : files) {
    next_file_number_ = std::max(next_file_number_, fn + 1);
  }

  // Every acknowledged run must open cleanly — a missing or corrupt file
  // here is real data loss, not a torn in-flight operation.
  runs_.clear();
  for (uint64_t fn : files) {
    UNISTORE_ASSIGN_OR_RETURN(
        std::shared_ptr<DiskRun> run,
        DiskRun::Open(env_, PathOf(RunFileName(fn)), fn, &cache_));
    runs_.push_back(std::move(run));
  }

  // Re-base the manifest on a single snapshot (bounds growth to one
  // record per subsequent operation) and only then clean up: files not in
  // the recovered set are orphans of unacknowledged operations.
  UNISTORE_RETURN_IF_ERROR(RewriteManifest());

  std::set<uint64_t> live(files.begin(), files.end());
  UNISTORE_ASSIGN_OR_RETURN(std::vector<std::string> children,
                            env_->ListDir(options_.data_dir));
  for (const std::string& name : children) {
    uint64_t fn = 0;
    const bool orphan_run = ParseRunFileName(name, &fn) && live.count(fn) == 0;
    if (orphan_run || name == kManifestTmpName) {
      const Status st = env_->DeleteFile(PathOf(name));
      if (!st.ok()) {
        UNISTORE_LOG(kWarning) << "orphan cleanup " << name << ": "
                               << st.message();
      } else if (orphan_run) {
        UNISTORE_LOG(kInfo) << "deleted orphan run file " << name;
      }
    }
  }
  return Status::OK();
}

Status DiskBackend::RewriteManifest() {
  manifest::Record snapshot;
  snapshot.type = manifest::kSnapshot;
  snapshot.next_file_number = next_file_number_;
  for (const auto& run : runs_) snapshot.runs.push_back(run->file_number());

  const std::string tmp_path = PathOf(kManifestTmpName);
  manifest_.reset();
  {
    UNISTORE_ASSIGN_OR_RETURN(std::unique_ptr<storage::WritableFile> tmp,
                              env_->NewWritableFile(tmp_path, true));
    UNISTORE_RETURN_IF_ERROR(tmp->Append(manifest::EncodeFramed(snapshot)));
    UNISTORE_RETURN_IF_ERROR(tmp->Sync());
    UNISTORE_RETURN_IF_ERROR(tmp->Close());
  }
  UNISTORE_RETURN_IF_ERROR(env_->RenameFile(tmp_path, PathOf(kManifestName)));
  UNISTORE_ASSIGN_OR_RETURN(
      manifest_, env_->NewWritableFile(PathOf(kManifestName), false));
  return Status::OK();
}

Status DiskBackend::AppendManifest(const storage::manifest::Record& record) {
  if (manifest_ == nullptr) {
    return Status::Internal("manifest not open");
  }
  UNISTORE_RETURN_IF_ERROR(manifest_->Append(manifest::EncodeFramed(record)));
  return manifest_->Sync();
}

Status DiskBackend::WriteRunFile(const std::vector<Entry>& entries,
                                 uint64_t file_number,
                                 std::shared_ptr<storage::DiskRun>* out) {
  const std::string path = PathOf(RunFileName(file_number));
  DiskRunWriter writer(env_, path, options_.block_bytes, entries.size());
  for (const Entry& e : entries) writer.Add(EntryView(e));
  UNISTORE_RETURN_IF_ERROR(writer.Finish());
  UNISTORE_ASSIGN_OR_RETURN(std::unique_ptr<storage::RandomAccessFile> file,
                            env_->NewRandomAccessFile(path));
  *out = std::make_shared<DiskRun>(
      path, file_number, &cache_, std::move(file), writer.TakeBlocks(),
      writer.entry_count(), writer.file_bytes(), writer.TakeFilter());
  return Status::OK();
}

void DiskBackend::DeleteRunFile(uint64_t file_number) {
  run_crc_.erase(file_number);
  const std::string name = RunFileName(file_number);
  const Status st = env_->DeleteFile(PathOf(name));
  if (!st.ok()) {
    // Not a correctness problem: the file is unreferenced and the next
    // recovery deletes it as an orphan.
    UNISTORE_LOG(kWarning) << "delete " << name << ": " << st.message();
  }
}

Status DiskBackend::AppendRun(std::vector<Entry> entries, RunOrigin origin) {
  if (!io_status_.ok()) return io_status_;
  if (entries.empty()) return Status::OK();
  const uint64_t fn = next_file_number_++;
  std::shared_ptr<DiskRun> run;
  Status st = WriteRunFile(entries, fn, &run);
  if (st.ok()) {
    // Durability barrier: the operation is acknowledged only once the
    // manifest record referencing the (already synced) run file is
    // itself synced. A crash between the two leaves an orphan file that
    // recovery deletes.
    manifest::Record record;
    record.type = manifest::kAddRun;
    record.file_number = fn;
    record.origin = static_cast<uint8_t>(origin);
    st = AppendManifest(record);
  }
  if (!st.ok()) {
    io_status_ = st;
    return st;
  }
  runs_.push_back(std::move(run));
  return Status::OK();
}

Status DiskBackend::MergeRuns(size_t first, size_t n, MergeStats* stats) {
  *stats = MergeStats{};
  if (!io_status_.ok()) return io_status_;
  if (n < 2) return Status::OK();
  if (first + n > runs_.size() || n > kMaxMergeFanIn) {
    return Status::Internal("MergeRuns group out of range: first=", first,
                            " n=", n, " runs=", runs_.size());
  }
  const uint64_t fn = next_file_number_++;
  const std::string path = PathOf(RunFileName(fn));
  size_t expected = 0;
  for (size_t i = 0; i < n; ++i) expected += runs_[first + i]->entry_count();
  DiskRunWriter writer(env_, path, options_.block_bytes, expected);
  DiskRunCursor cursors[kMaxMergeFanIn];
  for (size_t i = 0; i < n; ++i) {
    cursors[i].Seek(runs_[first + i].get(), Key());
  }
  MergeCursorStreams(cursors, n,
                     [&writer](const EntryView& v) { writer.Add(v); });
  // A read failure during the merge truncates the cursor stream silently;
  // surface it instead of committing a run missing entries.
  for (size_t i = 0; i < n; ++i) {
    const Status& read = runs_[first + i]->status();
    if (!read.ok()) {
      io_status_ = read;
      return read;
    }
  }
  Status st = writer.Finish();
  std::shared_ptr<DiskRun> merged;
  if (st.ok()) {
    auto file = env_->NewRandomAccessFile(path);
    if (!file.ok()) {
      st = file.status();
    } else {
      merged = std::make_shared<DiskRun>(
          path, fn, &cache_, std::move(file).value(), writer.TakeBlocks(),
          writer.entry_count(), writer.file_bytes(), writer.TakeFilter());
    }
  }
  if (st.ok()) {
    manifest::Record record;
    record.type = manifest::kReplace;
    record.first = first;
    record.removed = n;
    record.file_number = fn;
    st = AppendManifest(record);
  }
  if (!st.ok()) {
    io_status_ = st;
    return st;
  }
  stats->entries = static_cast<size_t>(writer.entry_count());
  stats->bytes = writer.approx_bytes();
  std::vector<uint64_t> obsolete;
  obsolete.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    obsolete.push_back(runs_[first + i]->file_number());
  }
  runs_.erase(runs_.begin() + static_cast<ptrdiff_t>(first + 1),
              runs_.begin() + static_cast<ptrdiff_t>(first + n));
  runs_[first] = std::move(merged);
  for (uint64_t old : obsolete) DeleteRunFile(old);
  return Status::OK();
}

Status DiskBackend::ResetTo(std::vector<Entry> entries) {
  if (!io_status_.ok()) return io_status_;
  std::shared_ptr<DiskRun> run;
  Status st;
  if (!entries.empty()) {
    const uint64_t fn = next_file_number_++;
    st = WriteRunFile(entries, fn, &run);
  }
  if (st.ok()) {
    manifest::Record snapshot;
    snapshot.type = manifest::kSnapshot;
    snapshot.next_file_number = next_file_number_;
    if (run != nullptr) snapshot.runs.push_back(run->file_number());
    st = AppendManifest(snapshot);
  }
  if (!st.ok()) {
    io_status_ = st;
    return st;
  }
  std::vector<uint64_t> obsolete;
  obsolete.reserve(runs_.size());
  for (const auto& r : runs_) obsolete.push_back(r->file_number());
  runs_.clear();
  if (run != nullptr) runs_.push_back(std::move(run));
  for (uint64_t old : obsolete) DeleteRunFile(old);
  return Status::OK();
}

Status DiskBackend::status() const {
  if (!io_status_.ok()) return io_status_;
  for (const auto& run : runs_) {
    if (!run->status().ok()) return run->status();
  }
  return Status::OK();
}

size_t DiskBackend::resident_bytes() const {
  size_t bytes = cache_.charge();
  for (const auto& run : runs_) bytes += run->metadata_bytes();
  return bytes;
}

bool DiskBackend::FindSlot(const SlotProbe& probe, uint64_t* version,
                           bool* deleted) const {
  for (auto run = runs_.rbegin(); run != runs_.rend(); ++run) {
    if ((*run)->FindSlot(probe, version, deleted)) return true;
  }
  return false;
}

void DiskBackend::SeekCursor(size_t newest_first_index, const Key& lo,
                             RunCursor* cursor) const {
  cursor->disk().Seek(runs_[runs_.size() - 1 - newest_first_index].get(), lo);
}

RunSummary DiskBackend::RunSummaryAt(size_t index) const {
  const storage::DiskRun& run = *runs_[index];
  auto it = run_crc_.find(run.file_number());
  if (it == run_crc_.end()) {
    // One sequential pass through the (block-cached) run. Run files are
    // immutable, so the result is cached for every later manifest pull.
    RunChecksum sum;
    storage::DiskRunCursor cursor;
    for (cursor.Seek(&run, Key()); cursor.valid(); cursor.Advance()) {
      sum.Add(cursor.view());
    }
    if (!run.status().ok()) {
      // A read error truncated the pass; report the partial CRC (the
      // repairer's re-verification rejects it) but do not cache it.
      return RunSummary{run.file_number(), run.entry_count(), sum.crc};
    }
    it = run_crc_.emplace(run.file_number(), sum.crc).first;
  }
  return RunSummary{run.file_number(), run.entry_count(), it->second};
}

bool DiskBackend::FindRunIndexById(uint64_t run_id, size_t* index) const {
  for (size_t i = 0; i < runs_.size(); ++i) {
    if (runs_[i]->file_number() == run_id) {
      *index = i;
      return true;
    }
  }
  return false;
}

}  // namespace pgrid
}  // namespace unistore
