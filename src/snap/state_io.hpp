#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace st::snap {

/// Thrown on any malformed, truncated, or mismatching snapshot image.
class SnapshotError : public std::runtime_error {
  public:
    explicit SnapshotError(const std::string& what)
        : std::runtime_error("snapshot: " + what) {}
};

/// FNV-1a over a byte range (same constants as sys::fig2 digest).
std::uint64_t fnv1a(const std::uint8_t* data, std::size_t n,
                    std::uint64_t seed = 0xcbf29ce484222325ull);

/// Serializer for the snapshot chunk format.
///
/// The image is a flat byte buffer of nested *chunks*. Every chunk is
///
///     name_len : u16    little-endian
///     name     : bytes  (ASCII, no NUL)
///     version  : u16
///     kind     : u8     0 = leaf (body is primitives only),
///                       1 = group (body is a sequence of chunks)
///     body_len : u64    byte length of the body
///     body     : bytes
///
/// All primitives are explicitly little-endian regardless of host byte
/// order, so images are portable across machines. Versions are per-chunk:
/// a reader that encounters a chunk version newer than it understands must
/// reject the image (see StateReader::enter). The kind byte lets generic
/// tools (diff_snapshots) walk the tree without model knowledge.
class StateWriter {
  public:
    /// Open a leaf chunk (primitives only). Must be balanced with end().
    void begin(const std::string& name, std::uint16_t version = 1);
    /// Open a group chunk (body is nested chunks only).
    void begin_group(const std::string& name, std::uint16_t version = 1);
    void end();

    void u8(std::uint8_t v);
    void u16(std::uint16_t v);
    void u32(std::uint32_t v);
    void u64(std::uint64_t v);
    void b(bool v) { u8(v ? 1 : 0); }
    void str(const std::string& s);
    /// Length-prefixed raw byte blob.
    void blob(const std::vector<std::uint8_t>& v);

    /// Finish and take the image. Throws if any chunk is still open.
    std::vector<std::uint8_t> take();

    const std::vector<std::uint8_t>& bytes() const { return buf_; }

  private:
    void open_chunk(const std::string& name, std::uint16_t version,
                    std::uint8_t kind);

    std::vector<std::uint8_t> buf_;
    /// Offsets of the body_len field of each open chunk, innermost last.
    std::vector<std::size_t> open_;
};

/// Pre-validated parse plan for one *fixed* snapshot image: the flattened
/// pre-order chunk table (header offset, version, body span) produced by a
/// single strict walk of the image bytes. Building the plan performs every
/// framing check the strict reader would (bounds, kind, nesting), so a
/// StateReader constructed over the *same bytes* with the plan can resolve
/// each enter() by table lookup — no name decode/compare, no per-chunk
/// re-validation — while primitive reads keep their bounds checks.
///
/// This is the delta that makes a lane rewind cheap: the pristine image
/// never changes between cases, yet a strict restore re-parses and
/// re-validates all of its framing every time. The plan hoists that work
/// to once per image. Identity is the caller's contract — pair
/// a plan only with the byte buffer it was built from (compare
/// image_size()/image_digest() once; `sys::Soc::reset_from_image` does).
class RewindPlan {
  public:
    RewindPlan() = default;
    /// Build by strict-walking `image`; throws SnapshotError if malformed.
    explicit RewindPlan(const std::vector<std::uint8_t>& image) {
        build(image.data(), image.size());
    }
    RewindPlan(const std::uint8_t* data, std::size_t n) { build(data, n); }

    bool built() const { return size_ != 0; }
    std::size_t image_size() const { return size_; }
    /// FNV-1a of the full image the plan was built from.
    std::uint64_t image_digest() const { return digest_; }
    std::size_t num_chunks() const { return chunks_.size(); }

  private:
    friend class StateReader;
    /// One chunk of the walked image, in pre-order.
    struct ChunkSpan {
        std::uint64_t hdr_off;     ///< offset of the name_len field
        std::uint64_t body_begin;  ///< first body byte
        std::uint64_t body_end;    ///< one past the last body byte
        std::uint32_t name_off;    ///< offset of the name bytes
        std::uint16_t name_len;
        std::uint16_t version;
    };
    void build(const std::uint8_t* data, std::size_t n);

    std::vector<ChunkSpan> chunks_;
    std::size_t size_ = 0;
    std::uint64_t digest_ = 0;
};

/// Deserializer for the snapshot chunk format. Strict by design: chunk
/// names must match exactly, every body byte must be consumed before
/// leave(), and versions newer than the caller expects are rejected.
///
/// A reader constructed with a RewindPlan runs in *trusted* mode: enter()
/// follows the plan's chunk table in O(1) instead of decoding and comparing
/// the chunk name. Framing trust is earned, not assumed — the plan itself
/// was a strict walk, every enter() still cross-checks the plan cursor
/// against the byte cursor (a desync throws), leave() still requires full
/// body consumption, and primitive reads keep their bounds checks.
class StateReader {
  public:
    explicit StateReader(const std::vector<std::uint8_t>& image)
        : buf_(image.data()), size_(image.size()), limit_(image.size()) {}
    StateReader(const std::uint8_t* data, std::size_t n)
        : buf_(data), size_(n), limit_(n) {}
    /// Trusted mode: `plan` must have been built from exactly these bytes.
    /// Size is checked here; content identity is the caller's contract
    /// (verify image_digest() once per pairing).
    StateReader(const std::vector<std::uint8_t>& image, const RewindPlan& plan)
        : buf_(image.data()),
          size_(image.size()),
          limit_(image.size()),
          plan_(&plan) {
        if (plan.image_size() != image.size()) {
            throw SnapshotError("rewind plan is for a different image (" +
                                std::to_string(plan.image_size()) + " vs " +
                                std::to_string(image.size()) + " bytes)");
        }
    }

    /// Enter the next chunk; its name must equal `name` and its version
    /// must be <= max_version. Returns the chunk's version.
    std::uint16_t enter(const std::string& name,
                        std::uint16_t max_version = 1);
    /// Leave the current chunk; throws if body bytes remain unread.
    void leave();

    std::uint8_t u8();
    std::uint16_t u16();
    std::uint32_t u32();
    std::uint64_t u64();
    bool b() { return u8() != 0; }
    std::string str();
    std::vector<std::uint8_t> blob();

    /// Name of the next chunk at the current position (without consuming
    /// it). Empty string when the current chunk body (or image) is done.
    std::string peek();

    /// True when every byte of the image has been consumed.
    bool done() const { return pos_ == size_; }

    /// True when this reader resolves chunks through a RewindPlan.
    bool trusted() const { return plan_ != nullptr; }

  private:
    void need(std::size_t n) const;

    const std::uint8_t* buf_;
    std::size_t size_;
    std::size_t pos_ = 0;
    /// End offset of the innermost open chunk body (size_ at top level);
    /// cached so the per-primitive bounds check is one compare.
    std::size_t limit_;
    /// End offset of each open chunk body, innermost last.
    std::vector<std::size_t> ends_;
    /// Non-null in trusted mode; cursor into its pre-order chunk table.
    const RewindPlan* plan_ = nullptr;
    std::size_t chunk_idx_ = 0;
};

}  // namespace st::snap
