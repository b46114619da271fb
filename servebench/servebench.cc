// servebench — the serving benchmark's program side (run.py drives it).
//
//   servebench describe
//       Print the workload table as JSON.
//   servebench data --workload=W --seed=S --out=CSV [--objects=N]
//                   [--moved-out=CSV]
//       Write the workload's base dataset (datagen Table IV generator:
//       uniform centers, aspect ratio in [0.25, 4], area AreaFor(n)) as an
//       xl,yl,xu,yu CSV. --moved-out also writes a copy in which object 0
//       sits on the first read of connection 0, so a server built from it
//       must fail the oracle.
//   servebench load --port=P --workload=W --seed=S --csv=CSV [options]
//       Closed-loop load from one thread over 4 connections; see load.cc.
//   servebench trace --snapshot=F --workload=W --seed=S --wal-dir=D [options]
//       In-process replay of the same statements with per-layer timings;
//       see trace.cc.
//
// Every subcommand prints one JSON line on stdout. Exit status: 0 ok,
// 1 failed or incorrect run, 2 usage.

#include "servebench/servebench.h"

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "datagen/synthetic.h"
#include "io/dataset_io.h"

namespace servebench {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    const std::size_t eq = arg.find('=');
    if (arg.rfind("--", 0) != 0 || eq == std::string::npos) {
      error_ = "expected --key=value, got '" + arg + "'";
      continue;
    }
    values_[arg.substr(2, eq - 2)] = arg.substr(eq + 1);
  }
}

std::string Args::Str(const std::string& key, const std::string& fallback) {
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  used_[key] = true;
  return it->second;
}

std::uint64_t Args::U64(const std::string& key, std::uint64_t fallback) {
  const std::string v = Str(key);
  if (v.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const std::uint64_t x = std::stoull(v, &pos);
    if (pos == v.size()) return x;
  } catch (const std::exception&) {
  }
  error_ = "bad integer in --" + key + "=" + v;
  return fallback;
}

double Args::F64(const std::string& key, double fallback) {
  const std::string v = Str(key);
  if (v.empty()) return fallback;
  try {
    std::size_t pos = 0;
    const double x = std::stod(v, &pos);
    if (pos == v.size() && std::isfinite(x)) return x;
  } catch (const std::exception&) {
  }
  error_ = "bad number in --" + key + "=" + v;
  return fallback;
}

std::string Args::Leftover() const {
  for (const auto& [key, value] : values_) {
    if (used_.count(key) == 0) return "--" + key;
  }
  return "";
}

const Workload* WorkloadArg(Args& args, Mix* mix) {
  const std::string name = args.Str("workload");
  const Workload* w = FindWorkload(name);
  if (w == nullptr) {
    std::fprintf(stderr, "servebench: unknown --workload '%s'\n",
                 name.c_str());
    return nullptr;
  }
  *mix = w->mix;
  const std::string spec = args.Str("mix");
  if (spec.empty()) return w;
  *mix = Mix{};
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(pos, end - pos);
    pos = end + 1;
    const std::size_t colon = item.find(':');
    double value = -1;
    try {
      value = std::stod(item.substr(colon == std::string::npos ? item.size()
                                                               : colon + 1));
    } catch (const std::exception&) {
    }
    const std::string kind = item.substr(0, colon);
    bool known = false;
    for (std::size_t i = 0; i < kReportKinds; ++i) {
      if (kind != kReportNames[i]) continue;
      known = true;
      if (i < kReadKinds) {
        mix->read_weight[i] = value;
      } else {
        mix->update_fraction = value / 100.0;
      }
    }
    if (!known || !(value >= 0)) {
      std::fprintf(stderr, "servebench: bad --mix item '%s'\n", item.c_str());
      return nullptr;
    }
  }
  double reads = 0;
  for (const double x : mix->read_weight) reads += x;
  if (reads <= 0 || mix->update_fraction >= 1) {
    std::fprintf(stderr, "servebench: --mix needs a read and update < 100\n");
    return nullptr;
  }
  if (mix->update_fraction > 0 && !w->live) {
    std::fprintf(stderr, "servebench: updates need a live workload\n");
    return nullptr;
  }
  return w;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  out.push_back('"');
  return out;
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

namespace {

int Describe() {
  std::string out = "{";
  for (const Workload& w : kWorkloads) {
    if (out.size() > 1) out += ", ";
    out += JsonString(w.name) + ": {\"objects\": " + std::to_string(w.objects) +
           ", \"live\": " + (w.live ? "true" : "false") +
           ", \"durable\": " + (w.durable ? "true" : "false") + "}";
  }
  std::printf("%s}\n", out.c_str());
  return 0;
}

int Data(Args& args) {
  Mix mix;
  const Workload* w = WorkloadArg(args, &mix);
  if (w == nullptr) return 2;
  const std::uint64_t seed = args.U64("seed", 1);
  const std::size_t n = args.U64("objects", w->objects);
  const std::string out = args.Str("out");
  const std::string moved_out = args.Str("moved-out");
  if (out.empty() || n == 0 || !args.error().empty() ||
      !args.Leftover().empty()) {
    std::fprintf(stderr, "servebench data: bad arguments %s%s\n",
                 args.error().c_str(), args.Leftover().c_str());
    return 2;
  }
  tlp::SyntheticConfig config;
  config.cardinality = n;
  config.area = AreaFor(n);
  config.seed = MixSeed(seed, 0xda7a, 0);
  std::vector<tlp::BoxEntry> entries = tlp::GenerateSyntheticRects(config);
  if (tlp::Status s = tlp::SaveMbrCsv(entries, out); !s.ok()) {
    std::fprintf(stderr, "servebench data: %s\n", s.message().c_str());
    return 1;
  }
  if (!moved_out.empty()) {
    StatementStream stream(mix, w->where_fraction, seed, 0);
    Statement first = stream.Next();
    while (!IsRead(first.kind)) first = stream.Next();
    tlp::Box& b = entries[0].box;
    const double hw = b.width() / 2;
    const double hh = b.height() / 2;
    b = tlp::Box{first.point.x - hw, first.point.y - hh, first.point.x + hw,
                 first.point.y + hh};
    if (tlp::Status s = tlp::SaveMbrCsv(entries, moved_out); !s.ok()) {
      std::fprintf(stderr, "servebench data: %s\n", s.message().c_str());
      return 1;
    }
  }
  std::printf("{\"objects\": %zu, \"area\": %s}\n", n,
              JsonNumber(config.area).c_str());
  return 0;
}

}  // namespace

}  // namespace servebench

int main(int argc, char** argv) {
  using namespace servebench;
  const std::string cmd = argc > 1 ? argv[1] : "";
  Args args(argc, argv, 2);
  if (cmd == "describe") return Describe();
  if (cmd == "data") return Data(args);
  if (cmd == "load") return RunLoad(args);
  if (cmd == "trace") return RunTrace(args);
  std::fprintf(stderr,
               "usage: servebench describe | data | load | trace "
               "[--key=value ...]\n");
  return 2;
}
