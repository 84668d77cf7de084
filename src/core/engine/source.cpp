#include "wm/core/engine/source.hpp"

#include <algorithm>
#include <array>
#include <fstream>

#include "wm/net/pcap.hpp"
#include "wm/net/pcapng.hpp"
#include "wm/util/mmap_file.hpp"

namespace wm::engine {

std::size_t PacketSource::read_batch(PacketBatch& out, std::size_t max) {
  out.clear();
  while (out.size() < max) {
    auto packet = next();
    if (!packet) break;
    out.append(std::move(*packet));
  }
  return out.size();
}

// --- VectorSource ----------------------------------------------------

std::optional<net::Packet> VectorSource::next() {
  if (index_ >= packets_->size()) return std::nullopt;
  if (packets_ == &owned_) return std::move(owned_[index_++]);
  return (*packets_)[index_++];
}

std::size_t VectorSource::read_batch(PacketBatch& out, std::size_t max) {
  out.clear();
  if (index_ >= packets_->size()) return 0;
  const std::size_t count = std::min(max, packets_->size() - index_);
  out.borrow(packets_->data() + index_, count);
  index_ += count;
  return count;
}

std::size_t VectorSource::read_views(PacketBatch& out, std::size_t max) {
  out.clear();
  if (index_ >= packets_->size()) return 0;
  const std::size_t count = std::min(max, packets_->size() - index_);
  for (std::size_t i = 0; i < count; ++i) {
    out.append_view(net::PacketView((*packets_)[index_ + i]));
  }
  index_ += count;
  return count;
}

// --- CaptureFileSource ----------------------------------------------

struct CaptureFileSource::Impl {
  // Exactly one reader is set, chosen by the file magic at open time.
  std::unique_ptr<net::PcapReader> pcap;
  std::unique_ptr<net::PcapngReader> pcapng;
  // Backing stream when the istream path was forced (allow_mmap off).
  std::unique_ptr<std::ifstream> stream;
  // Observability handles (null without a registry).
  obs::Counter* packets = nullptr;
  obs::Counter* bytes = nullptr;
  obs::Counter* errors = nullptr;

  /// Appends up to `max` packets to `out`, copied or borrowed, and adds
  /// their payload bytes to `payload` (kept when a corrupt record
  /// throws). Classic pcap fills runs from its record index; pcapng
  /// yields one view per call.
  void fill(PacketBatch& out, std::size_t max, bool copy, std::uint64_t& payload) {
    std::array<net::PacketView, 64> run;
    while (out.size() < max) {
      const std::size_t want = std::min(run.size(), max - out.size());
      std::size_t got = 0;
      if (pcap) {
        got = pcap->next_views(run.data(), want);
      } else if (const auto view = pcapng->next_view()) {
        run[0] = *view;
        got = 1;
      }
      if (got == 0) break;
      for (std::size_t i = 0; i < got; ++i) {
        payload += run[i].data.size();
        if (copy) {
          out.append(run[i]);
        } else {
          out.append_view(run[i]);
        }
      }
    }
  }
  [[nodiscard]] bool memory_mapped() const {
    return pcap ? pcap->memory_mapped() : pcapng->memory_mapped();
  }
};

CaptureFileSource::CaptureFileSource(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
CaptureFileSource::~CaptureFileSource() = default;
CaptureFileSource::CaptureFileSource(CaptureFileSource&&) noexcept = default;
CaptureFileSource& CaptureFileSource::operator=(CaptureFileSource&&) noexcept =
    default;

bool CaptureFileSource::memory_mapped() const { return impl_->memory_mapped(); }

std::optional<net::Packet> CaptureFileSource::next() {
  if (error_) return std::nullopt;
  try {
    auto packet = impl_->pcap ? impl_->pcap->next() : impl_->pcapng->next();
    if (packet) {
      obs::inc(impl_->packets);
      obs::inc(impl_->bytes, packet->data.size());
    }
    return packet;
  } catch (const std::exception& e) {
    // A corrupt record ends the stream; what was already delivered
    // stays valid (a tap that dies mid-capture loses the tail only).
    error_ = Error{ErrorCode::kMalformedCapture, e.what()};
    obs::inc(impl_->errors);
    return std::nullopt;
  }
}

std::size_t CaptureFileSource::read_batch(PacketBatch& out, std::size_t max) {
  out.clear();
  if (error_) return 0;
  std::uint64_t bytes = 0;
  try {
    impl_->fill(out, max, /*copy=*/true, bytes);
  } catch (const std::exception& e) {
    error_ = Error{ErrorCode::kMalformedCapture, e.what()};
    obs::inc(impl_->errors);
  }
  // Metrics land once per batch, not once per packet; totals match the
  // next() path exactly.
  if (!out.empty()) {
    obs::inc(impl_->packets, out.size());
    obs::inc(impl_->bytes, bytes);
  }
  return out.size();
}

std::size_t CaptureFileSource::read_views(PacketBatch& out, std::size_t max) {
  out.clear();
  // Only the mmap readers yield views into storage that survives until
  // the source is destroyed; the istream readers reuse a staging buffer
  // per record, so they cannot honour read_views' lifetime contract.
  if (error_ || !impl_->memory_mapped()) return 0;
  std::uint64_t bytes = 0;
  try {
    impl_->fill(out, max, /*copy=*/false, bytes);
  } catch (const std::exception& e) {
    error_ = Error{ErrorCode::kMalformedCapture, e.what()};
    obs::inc(impl_->errors);
  }
  if (!out.empty()) {
    obs::inc(impl_->packets, out.size());
    obs::inc(impl_->bytes, bytes);
  }
  return out.size();
}

Result<std::unique_ptr<PacketSource>> open_capture(
    const std::filesystem::path& path, obs::Registry* metrics) {
  CaptureOptions options;
  options.metrics = metrics;
  return open_capture(path, options);
}

Result<std::unique_ptr<PacketSource>> open_capture(
    const std::filesystem::path& path, const CaptureOptions& options) {
  // The mapping, when the fast path is allowed and engages, is both the
  // magic probe and the reader's backing store: the file opens once.
  util::MappedFile map;
  if (options.allow_mmap) map = util::MappedFile::open(path);
  std::uint8_t magic_bytes[4] = {0, 0, 0, 0};
  std::size_t magic_size = 0;
  if (map.valid()) {
    magic_size = std::min<std::size_t>(map.size(), 4);
    std::copy_n(map.view().data(), magic_size, magic_bytes);
  } else {
    std::ifstream probe(path, std::ios::binary);
    if (!probe) {
      return Error{ErrorCode::kNotFound, "cannot open " + path.string()};
    }
    magic_size = util::read_exact(probe, magic_bytes, 4);
  }
  if (magic_size != 4) {
    return Error{ErrorCode::kUnsupportedFormat,
                 path.string() + " is too short to hold a capture-file magic"};
  }

  // Assemble the magic in both byte orders; pcap files may be written
  // on either endianness, pcapng's SHB type is order-invariant.
  const std::uint32_t le = static_cast<std::uint32_t>(magic_bytes[0]) |
                           (static_cast<std::uint32_t>(magic_bytes[1]) << 8) |
                           (static_cast<std::uint32_t>(magic_bytes[2]) << 16) |
                           (static_cast<std::uint32_t>(magic_bytes[3]) << 24);
  const std::uint32_t be = static_cast<std::uint32_t>(magic_bytes[3]) |
                           (static_cast<std::uint32_t>(magic_bytes[2]) << 8) |
                           (static_cast<std::uint32_t>(magic_bytes[1]) << 16) |
                           (static_cast<std::uint32_t>(magic_bytes[0]) << 24);
  const bool is_pcapng =
      le == static_cast<std::uint32_t>(net::PcapngBlockType::kSectionHeader);
  const bool is_pcap = le == net::PcapFileHeader::kMagicMicros ||
                       le == net::PcapFileHeader::kMagicNanos ||
                       be == net::PcapFileHeader::kMagicMicros ||
                       be == net::PcapFileHeader::kMagicNanos;
  if (!is_pcapng && !is_pcap) {
    return Error{ErrorCode::kUnsupportedFormat,
                 path.string() + " has no pcap/pcapng magic"};
  }

  auto impl = std::make_unique<CaptureFileSource::Impl>();
  try {
    if (map.valid()) {
      if (is_pcapng) {
        impl->pcapng = std::make_unique<net::PcapngReader>(std::move(map));
      } else {
        impl->pcap = std::make_unique<net::PcapReader>(std::move(map));
      }
    } else {
      // Streaming path: the file is unmappable (a pipe, say) or mmap is
      // off. The readers' istream constructors never map, so with
      // allow_mmap off this is the oracle the mmap path is differenced
      // against.
      impl->stream = std::make_unique<std::ifstream>(path, std::ios::binary);
      if (!*impl->stream) {
        return Error{ErrorCode::kNotFound, "cannot open " + path.string()};
      }
      if (is_pcapng) {
        impl->pcapng = std::make_unique<net::PcapngReader>(*impl->stream);
      } else {
        impl->pcap = std::make_unique<net::PcapReader>(*impl->stream);
      }
    }
  } catch (const std::exception& e) {
    return Error{ErrorCode::kMalformedCapture, e.what()};
  }
  if (options.metrics != nullptr) {
    impl->packets =
        options.metrics->counter("source.packets", obs::Stability::kStable);
    impl->bytes =
        options.metrics->counter("source.bytes", obs::Stability::kStable);
    impl->errors =
        options.metrics->counter("source.errors", obs::Stability::kStable);
    options.metrics
        ->counter(is_pcapng ? "source.format.pcapng" : "source.format.pcap",
                  obs::Stability::kStable)
        ->add(1);
    // Whether mmap engaged depends on the platform and open mode, not
    // on the packet stream — keep it out of the stable section.
    if (impl->memory_mapped()) {
      options.metrics->counter("source.mmap", obs::Stability::kSharded)->add(1);
    }
  }
  return std::unique_ptr<PacketSource>(
      new CaptureFileSource(std::move(impl)));
}

}  // namespace wm::engine
