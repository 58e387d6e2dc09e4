// Persistent model-registry journal.
//
// A RegistryJournal records the lifecycle of a serving daemon's model
// set -- add / swap / remove / tombstone events, each naming a model,
// the artifact file (relative to the store directory) backing it, and
// its admission priority -- so a daemon started with `--store-dir` can
// replay the journal and come back up warm with its exact pre-crash
// model set.
//
// On-disk format (store_dir/journal): a line-oriented text file,
//
//     radix-journal v1
//     add\t<model>\t<artifact-file>\t<priority>
//     swap\t<model>\t<artifact-file>\t<priority>
//     remove\t<model>
//     tombstone\t<model>
//
// Commits are crash-safe: every mutation rewrites the full journal
// through write_durably (store/durable.hpp) -- `journal.tmp`, fsync,
// rename over `journal`, directory fsync -- so a reader never observes
// a torn journal: it sees either the previous committed state or the
// new one.  The journal is
// intentionally an event log rather than a snapshot: replay() returns
// the events in order and the caller folds them (last event per model
// wins; remove/tombstone clear the entry), which keeps this layer free
// of any dependency on the serving engine.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace radix::store {

enum class JournalOp : std::uint8_t {
  kAdd,
  kSwap,
  kRemove,
  kTombstone,
};

struct JournalEvent {
  JournalOp op;
  std::string model;
  std::string artifact;  // file name relative to the store dir ("" for
                         // remove/tombstone)
  std::uint8_t priority = 0;
};

class RegistryJournal {
 public:
  /// Opens (and replays) the journal in `store_dir`, creating an empty
  /// one if none exists.  Throws IoError on unreadable or malformed
  /// journals.
  explicit RegistryJournal(const std::string& store_dir);

  /// All committed events, oldest first.
  const std::vector<JournalEvent>& events() const noexcept { return events_; }

  /// The folded live set: last add/swap per model still standing (no
  /// later remove/tombstone), in first-added order.
  std::vector<JournalEvent> live() const;

  /// Append an event and durably commit (rewrite via write_durably).
  void append(const JournalEvent& ev);

  const std::string& path() const noexcept { return path_; }

 private:
  void commit() const;

  std::string path_;
  std::vector<JournalEvent> events_;
};

}  // namespace radix::store
