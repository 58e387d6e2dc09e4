#include "store/journal.hpp"

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "store/durable.hpp"
#include "support/error.hpp"

namespace radix::store {

namespace {

constexpr const char* kJournalHeader = "radix-journal v1";

const char* op_name(JournalOp op) {
  switch (op) {
    case JournalOp::kAdd: return "add";
    case JournalOp::kSwap: return "swap";
    case JournalOp::kRemove: return "remove";
    case JournalOp::kTombstone: return "tombstone";
  }
  return "?";
}

bool parse_op(const std::string& s, JournalOp& out) {
  if (s == "add") out = JournalOp::kAdd;
  else if (s == "swap") out = JournalOp::kSwap;
  else if (s == "remove") out = JournalOp::kRemove;
  else if (s == "tombstone") out = JournalOp::kTombstone;
  else return false;
  return true;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (true) {
    std::size_t tab = line.find('\t', start);
    if (tab == std::string::npos) {
      out.push_back(line.substr(start));
      return out;
    }
    out.push_back(line.substr(start, tab - start));
    start = tab + 1;
  }
}

void check_field(const std::string& field, const std::string& what) {
  if (field.find('\t') != std::string::npos ||
      field.find('\n') != std::string::npos) {
    throw IoError("journal: " + what + " may not contain tabs or newlines");
  }
}

}  // namespace

RegistryJournal::RegistryJournal(const std::string& store_dir)
    : path_(store_dir + "/journal") {
  std::ifstream in(path_);
  if (!in) {
    if (errno == ENOENT) {
      commit();  // create an empty committed journal
      return;
    }
    throw IoError("journal: open " + path_ + ": " + std::strerror(errno));
  }
  std::string line;
  if (!std::getline(in, line) || line != kJournalHeader) {
    throw IoError("journal: " + path_ + ": missing '" +
                  std::string(kJournalHeader) + "' header");
  }
  int lineno = 1;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    auto fields = split_tabs(line);
    JournalEvent ev;
    if (!parse_op(fields[0], ev.op)) {
      throw IoError("journal: " + path_ + ":" + std::to_string(lineno) +
                    ": unknown op '" + fields[0] + "'");
    }
    const bool carries_artifact =
        ev.op == JournalOp::kAdd || ev.op == JournalOp::kSwap;
    const std::size_t want = carries_artifact ? 4 : 2;
    if (fields.size() != want) {
      throw IoError("journal: " + path_ + ":" + std::to_string(lineno) +
                    ": expected " + std::to_string(want) + " fields, got " +
                    std::to_string(fields.size()));
    }
    ev.model = fields[1];
    if (carries_artifact) {
      ev.artifact = fields[2];
      int prio = 0;
      try {
        prio = std::stoi(fields[3]);
      } catch (const std::exception&) {
        prio = -1;
      }
      if (prio < 0 || prio > 255) {
        throw IoError("journal: " + path_ + ":" + std::to_string(lineno) +
                      ": bad priority '" + fields[3] + "'");
      }
      ev.priority = static_cast<std::uint8_t>(prio);
    }
    events_.push_back(std::move(ev));
  }
}

std::vector<JournalEvent> RegistryJournal::live() const {
  std::vector<JournalEvent> out;
  for (const auto& ev : events_) {
    auto it = out.begin();
    for (; it != out.end(); ++it) {
      if (it->model == ev.model) break;
    }
    switch (ev.op) {
      case JournalOp::kAdd:
      case JournalOp::kSwap:
        if (it != out.end()) {
          *it = ev;  // keep first-added position, take the latest artifact
        } else {
          out.push_back(ev);
        }
        break;
      case JournalOp::kRemove:
      case JournalOp::kTombstone:
        if (it != out.end()) out.erase(it);
        break;
    }
  }
  return out;
}

void RegistryJournal::append(const JournalEvent& ev) {
  check_field(ev.model, "model name");
  check_field(ev.artifact, "artifact name");
  events_.push_back(ev);
  try {
    commit();
  } catch (...) {
    events_.pop_back();
    throw;
  }
}

void RegistryJournal::commit() const {
  std::ostringstream text;
  text << kJournalHeader << '\n';
  for (const auto& ev : events_) {
    text << op_name(ev.op) << '\t' << ev.model;
    if (ev.op == JournalOp::kAdd || ev.op == JournalOp::kSwap) {
      text << '\t' << ev.artifact << '\t'
           << static_cast<unsigned>(ev.priority);
    }
    text << '\n';
  }
  const std::string body = text.str();
  write_durably(path_, std::as_bytes(std::span(body)));
}

}  // namespace radix::store
