// vfctl — command-line driver for the voidfill pipeline.
//
// Chains the paper's workflow over VTK files, so the library is usable
// without writing C++:
//
//   vfctl generate    --dataset hurricane --dims 125x125x25 --timestep 24
//                     --out truth.vti
//   vfctl sample      --in truth.vti --fraction 0.01
//                     [--sampler importance|random|stratified] --out cloud.vtp
//   vfctl train       --in truth.vti --out model.vfmd [--epochs N]
//                     [--rows-max N] [--gradients-off]
//                     [--checkpoint-dir DIR [--checkpoint-every N]
//                      [--checkpoint-keep K] [--resume]]
//   vfctl finetune    --model model.vfmd --in next.vti [--epochs 10]
//                     [--finetune-case2]
//   vfctl reconstruct --cloud cloud.vtp --like truth.vti --out recon.vti
//                     (--model model.vfmd | --method linear|natural|...)
//                     [--quant none|fp32|fp16|int8] [--index auto|kdtree|grid_hash]
//   vfctl eval        --truth truth.vti --recon recon.vti
//   vfctl pipeline    --dataset ionization [--steps 8] [--dims 32x32x16]
//                     [--fraction 0.05] [--epochs-per-step 10]
//                     [--pretrain-epochs 30] [--drift-floor DB]
//                     [--workers N] [--workdir DIR] [--seed N]
//                     [--inject-drift-at STEP [--inject-drift-factor 8]]
//                     [--probe-off] [--serve-port PORT]
//                     [--shards N] [--serve-workers N]
//   vfctl serve       --cloud cloud.vtp --model model.vfmd [--key NAME]
//                     [--sessions "k1=c1.vtp:m1.vfmd;k2=c2.vtp:m2.vfmd"]
//                     [--shards N] [--wire ndjson|binary]
//                     [--serve-workers N] [--batch-max POINTS]
//                     [--queue-max N] [--deadline-ms MS]
//                     [--drain-timeout-ms MS]
//                     [--registry-max-models N] [--registry-budget-mb MB]
//                     [--serve-port PORT] [--quant none|fp32|fp16|int8]
//                     [--lock-order]
//
// Every command prints what it did; `eval` prints SNR/PSNR/RMSE. `serve`
// fronts a consistent-hash ShardRouter over --shards shards (DESIGN.md
// §13; --shards 1 is the single-instance tier) and speaks two codecs: the
// line-delimited JSON protocol of vf/serve/wire.hpp and the VFW1 binary
// framing. --wire picks the stdin codec; TCP connections negotiate per
// connection by sniffing the first bytes, so one --serve-port listener
// carries mixed-codec clients.
// ndjson examples (stdin or TCP):
//   {"id": 1, "points": [[0.5, 0.5, 0.5]]}     -> point query
//       (optional "deadline_ms": N; default from --deadline-ms, 0 = none)
//   {"id": 2, "cmd": "stats"}                  -> service counters
//   {"id": 3, "cmd": "health"}                 -> liveness probe
//   {"id": 4, "cmd": "ready"}                  -> readiness + breaker state
//   {"id": 5, "cmd": "shutdown"}               -> graceful drain, then exit
//
// Lifecycle (DESIGN.md §12): SIGTERM/SIGINT or the shutdown cmd starts a
// graceful drain — admission closes (new queries answer "draining"),
// in-flight batches flush, every outstanding request is answered — and the
// process exits 0 when the drain finishes inside --drain-timeout-ms
// (default 5000), 1 when the budget was blown (still no orphaned request:
// the backlog is answered "draining" before exit).
//
// Flag spellings follow --<noun>-<verb(or qualifier)> form.
//
// Observability (all commands): --metrics-out FILE writes the vf::obs
// metrics registry (counters/gauges/histograms + aggregated span tree) as
// "vf-metrics" JSON after the command succeeds; --trace-out FILE writes a
// chrome://tracing file of every recorded span; --trace prints the
// aggregated span-tree summary to stdout on exit. The VF_OBS environment
// variable (0/1) is the runtime master switch.
//
// Concurrency debugging: `serve --lock-order` (or VF_LOCK_ORDER=1 in the
// environment, =log to report without aborting) arms the runtime
// lock-order detector — any acquisition-order inversion across the serve /
// obs / util mutexes aborts with both offending held-lock stacks. See
// vf/util/lock_order.hpp and DESIGN.md §11.
//
// Robustness options (all commands): --retries N (default 1) retries file
// loads N times total on transient I/O errors with exponential backoff
// starting at --retry-delay-ms M (default 50). `reconstruct --model` never
// hard-fails on a rotten model or cloud: bad samples are scrubbed, a
// missing/corrupt model degrades to the modified Shepard grid, and the
// degradation report is printed.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <csignal>

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include "vf/api/pipeline.hpp"
#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/field/vtk_io.hpp"
#include "vf/obs/obs.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/serve/router.hpp"
#include "vf/serve/wire.hpp"
#include "vf/util/atomic_io.hpp"
#include "vf/util/cli.hpp"
#include "vf/util/lock_order.hpp"
#include "vf/util/timer.hpp"

namespace {

using namespace vf;

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr, "vfctl: %s\n", why);
  std::fprintf(stderr,
               "usage: vfctl <generate|sample|train|finetune|reconstruct|"
               "eval|serve|pipeline> [options]\n       (see tools/vfctl.cpp "
               "header for the full option list)\n");
  std::exit(2);
}

std::string require(const util::Cli& cli, const char* name) {
  if (!cli.has(name)) usage(("missing --" + std::string(name)).c_str());
  return cli.get(name, "");
}

field::Dims parse_dims(const std::string& spec) {
  field::Dims d;
  if (std::sscanf(spec.c_str(), "%dx%dx%d", &d.nx, &d.ny, &d.nz) != 3) {
    usage("bad --dims, expected e.g. 125x125x25");
  }
  return d;
}

std::unique_ptr<sampling::Sampler> make_sampler(const std::string& name) {
  // The library factory owns the name -> sampler mapping; vfctl only maps
  // its failure mode onto the CLI's usage-error exit code.
  try {
    return sampling::make_sampler(name);
  } catch (const std::invalid_argument&) {
    usage("unknown --sampler");
  }
}

core::FcnnConfig config_from(const util::Cli& cli) {
  core::FcnnConfig cfg;
  cfg.epochs = cli.get_int("epochs", 60);
  cfg.max_train_rows =
      static_cast<std::size_t>(cli.get_int("rows-max", 20000));
  cfg.with_gradients = !cli.get_bool("gradients-off", false);
  cfg.seed = static_cast<std::uint64_t>(cli.get_int("seed", 42));
  cfg.checkpoint_dir = cli.get("checkpoint-dir", "");
  cfg.checkpoint_every = cli.get_int("checkpoint-every", 1);
  cfg.checkpoint_keep = cli.get_int("checkpoint-keep", 3);
  cfg.resume = cli.get_bool("resume", false);
  return cfg;
}

/// Retry transient I/O per the command line: --retries total attempts with
/// exponential backoff from --retry-delay-ms.
template <typename Fn>
auto load_with_retries(const util::Cli& cli, Fn&& fn) -> decltype(fn()) {
  return util::with_retries(cli.get_int("retries", 1),
                            cli.get_int("retry-delay-ms", 50),
                            std::forward<Fn>(fn));
}

field::ScalarField read_vti_retry(const util::Cli& cli,
                                  const std::string& path) {
  return load_with_retries(cli, [&] { return field::read_vti(path); });
}

int cmd_generate(const util::Cli& cli) {
  auto ds = data::make_dataset(cli.get("dataset", "hurricane"),
                               static_cast<std::uint64_t>(cli.get_int("seed", 0)));
  auto dims = parse_dims(cli.get("dims", "125x125x25"));
  double t = cli.get_double("timestep", 0.0);
  auto truth = ds->generate(dims, t);
  auto out = require(cli, "out");
  field::write_vti(truth, out);
  std::printf("generated %s t=%g (%s) -> %s\n", ds->name().c_str(), t,
              truth.grid().describe().c_str(), out.c_str());
  return 0;
}

int cmd_sample(const util::Cli& cli) {
  auto truth = read_vti_retry(cli, require(cli, "in"));
  auto sampler = make_sampler(cli.get("sampler", "importance"));
  double fraction = cli.get_double("fraction", 0.01);
  auto cloud = sampler->sample(truth, fraction,
                               static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  auto out = require(cli, "out");
  cloud.save_vtp(out, truth.name());
  std::printf("sampled %zu/%lld points (%.3f%%) with %s -> %s\n",
              cloud.size(), static_cast<long long>(truth.size()),
              cloud.sampling_fraction() * 100, sampler->name().c_str(),
              out.c_str());
  return 0;
}

int cmd_train(const util::Cli& cli) {
  auto truth = read_vti_retry(cli, require(cli, "in"));
  auto sampler = make_sampler(cli.get("sampler", "importance"));
  auto cfg = config_from(cli);
  util::Timer timer;
  auto pre = core::pretrain(truth, *sampler, cfg);
  auto out = require(cli, "out");
  pre.model.save(out);
  if (pre.history.resumed_from_epoch >= 0) {
    std::printf("resumed from checkpoint at epoch %d\n",
                pre.history.resumed_from_epoch);
  }
  std::printf("trained on %zu rows in %.1fs (loss %.5f -> %.5f) -> %s\n",
              pre.train_rows, timer.seconds(),
              pre.history.train_loss.front(), pre.history.train_loss.back(),
              out.c_str());
  return 0;
}

int cmd_finetune(const util::Cli& cli) {
  auto model_path = require(cli, "model");
  auto model =
      load_with_retries(cli, [&] { return core::FcnnModel::load(model_path); });
  auto truth = read_vti_retry(cli, require(cli, "in"));
  auto sampler = make_sampler(cli.get("sampler", "importance"));
  auto cfg = config_from(cli);
  auto mode = cli.get_bool("finetune-case2", false)
                  ? core::FineTuneMode::LastTwoLayers
                  : core::FineTuneMode::FullNetwork;
  int epochs = cli.get_int("epochs", mode == core::FineTuneMode::FullNetwork
                                         ? 10
                                         : 300);
  util::Timer timer;
  auto hist = core::fine_tune(model, truth, *sampler, cfg, mode, epochs);
  auto out = cli.get("out", model_path);
  model.save(out);
  std::printf("fine-tuned (%s, %d epochs) in %.1fs (loss %.5f -> %.5f) -> %s\n",
              mode == core::FineTuneMode::FullNetwork ? "case 1" : "case 2",
              epochs, timer.seconds(), hist.train_loss.front(),
              hist.train_loss.back(), out.c_str());
  return 0;
}

int cmd_reconstruct(const util::Cli& cli) {
  auto cloud = load_with_retries(
      cli, [&] { return sampling::SampleCloud::load_vtp(require(cli, "cloud")); });
  auto like = read_vti_retry(cli, require(cli, "like"));
  auto out = require(cli, "out");

  // Everything routes through the vf::api facade: the FCNN path runs in
  // resilient mode (scrub rotten samples, degrade per point or — when the
  // model file is unusable — wholesale to the classical fallback, and say
  // so, instead of dying mid-campaign).
  api::ReconstructOptions ropts;
  // Engine tuning applies to the FCNN engines (the resilient wrapper's
  // whole-reconstruction fallback path stays fp64 classical regardless).
  ropts.engine.quant = nn::quant_policy_from_name(cli.get("quant", "none"));
  ropts.engine.index =
      spatial::index_kind_from_name(cli.get("index", "auto"));
  if (cli.has("model")) {
    ropts.model_path = cli.get("model", "");
    ropts.resilient = true;
  } else {
    ropts.method = api::method_from_name(cli.get("method", "linear"));
  }
  api::Reconstructor reconstructor(ropts);
  auto result = reconstructor.reconstruct(cloud, like.grid());
  if (!result.report.clean()) {
    std::printf("%s\n", result.report.summary().c_str());
  }
  field::ScalarField recon = std::move(result.field);
  double seconds = result.stats.seconds;
  recon.set_name(like.name());
  field::write_vti(recon, out);
  std::printf("reconstructed %s in %.2fs -> %s\n",
              like.grid().describe().c_str(), seconds, out.c_str());
  return 0;
}

/// Set by the SIGTERM/SIGINT handler; the serve loops poll it. Installed
/// without SA_RESTART so blocking getline/poll calls return with EINTR and
/// the loops fall through into the graceful drain.
std::atomic<bool> g_signal_stop{false};

extern "C" void serve_signal_handler(int) { g_signal_stop.store(true); }

void install_serve_signal_handlers() {
  struct sigaction sa {};
  sa.sa_handler = serve_signal_handler;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = 0;  // deliberately no SA_RESTART: interrupt blocking reads
  ::sigaction(SIGTERM, &sa, nullptr);
  ::sigaction(SIGINT, &sa, nullptr);
}

/// Set by cmd_pipeline before any serve thread starts (and never cleared
/// while one runs), so the `ready` verb can report which fine-tune
/// generation is live. Null under plain `vfctl serve`.
api::Pipeline* g_live_pipeline = nullptr;

/// Serve one parsed request against the shard tier; sets `stop` on a
/// shutdown command. Codec-neutral: the caller renders the Response with
/// render_json (ndjson) or encode_response_frame (VFW1).
serve::wire::Response handle_request(serve::ShardRouter& router,
                                     const std::string& default_key,
                                     serve::wire::Request& req,
                                     std::atomic<bool>& stop) {
  using serve::Status;
  namespace wire = serve::wire;
  wire::Verb verb = wire::Verb::Query;
  if (!wire::verb_from_cmd(req.cmd, verb)) {
    return wire::make_status_response(req.id, wire::Verb::Query,
                                      Status::BadRequest,
                                      "unknown cmd '" + req.cmd + "'");
  }
  if (verb == wire::Verb::Stats) {
    // Tier-level counters: the element-wise sum across shards keeps the
    // exact single-instance stats schema.
    wire::Response resp = wire::make_status_response(req.id, verb, Status::Ok);
    resp.json_body = wire::stats_response(req.id, router.stats().total);
    return resp;
  }
  if (verb == wire::Verb::Health) {
    // Liveness only: the fact that this line is being answered is the
    // signal. Readiness (queue, breakers, draining) is `ready`'s job.
    return wire::make_status_response(req.id, verb, Status::Ok, "alive");
  }
  if (verb == wire::Verb::Ready) {
    wire::ReadyInfo info;
    info.draining = router.draining();
    info.queue_depth = router.queue_depth();
    const auto stats = router.stats();
    info.queue_max =
        router.shard_count() * router.options().shard.queue_max;
    info.resident_models = stats.total.registry.resident_models;
    info.open_breakers = stats.total.registry.open_breakers;
    info.breakers = router.breaker_states();
    if (g_live_pipeline != nullptr) {
      info.has_pipeline = true;
      info.pipeline_generation = g_live_pipeline->generation();
      info.pipeline_last_snr_db = g_live_pipeline->last_snr_db();
    }
    wire::Response resp =
        wire::make_status_response(req.id, verb, Status::Ok);
    resp.json_body = wire::ready_response(req.id, info);
    return resp;
  }
  if (verb == wire::Verb::Shutdown) {
    // Close admission immediately so queries racing the drain are answered
    // "draining"; the main loop runs the actual drain with its budget.
    router.begin_drain();
    stop.store(true);
    return wire::make_status_response(req.id, verb, Status::Ok, "draining");
  }
  const std::string& key = req.key.empty() ? default_key : req.key;
  try {
    std::optional<std::future<serve::PointResponse>> future;
    if (req.deadline_ms > 0) {
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::microseconds(
              static_cast<std::int64_t>(req.deadline_ms * 1000.0));
      future = router.submit(key, std::move(req.points), deadline);
    } else {
      future = router.submit(key, std::move(req.points));
    }
    if (!future) {
      return wire::make_status_response(
          req.id, verb,
          router.draining() ? Status::Draining : Status::Overloaded);
    }
    return wire::make_query_response(req.id, future->get());
  } catch (const std::invalid_argument& e) {
    return wire::make_status_response(req.id, verb, Status::BadRequest,
                                      e.what());
  } catch (const std::exception& e) {
    return wire::make_status_response(req.id, verb, Status::Internal,
                                      e.what());
  }
}

/// ndjson entry point: parse one protocol line, serve it, render the line.
std::string handle_serve_line(serve::ShardRouter& router,
                              const std::string& default_key,
                              const std::string& line,
                              std::atomic<bool>& stop) {
  serve::wire::Request req;
  std::string error;
  if (!serve::wire::parse_request(line, req, error)) {
    return serve::wire::status_response(req.id, serve::Status::BadRequest,
                                        error);
  }
  return serve::wire::render_json(
      handle_request(router, default_key, req, stop));
}

/// Blocking full write; false when the peer went away.
bool write_all(int fd, const std::string& bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + sent, bytes.size() - sent);
    if (w <= 0) return false;
    sent += static_cast<std::size_t>(w);
  }
  return true;
}

/// Drain every complete VFW1 frame at the head of `buffer`, answering each
/// through `respond`. Shared by the binary stdin loop and TCP clients.
/// Returns false when the stream is corrupt (connection-fatal) or the
/// responder failed; `buffer` keeps any trailing partial frame.
bool pump_binary_frames(
    std::string& buffer, serve::ShardRouter& router,
    const std::string& default_key, std::atomic<bool>& stop,
    const std::function<bool(const std::string&)>& respond) {
  namespace wire = serve::wire;
  while (true) {
    std::size_t consumed = 0;
    wire::Request req;
    std::string error;
    const wire::FrameStatus st =
        wire::decode_request_frame(buffer, consumed, req, error);
    if (st == wire::FrameStatus::NeedMore) return true;
    if (st == wire::FrameStatus::Corrupt) {
      // Framing is gone: one last diagnostic frame, then hang up — resync
      // inside a byte stream with broken length prefixes is guesswork.
      respond(wire::encode_response_frame(wire::make_status_response(
          0, wire::Verb::Query, serve::Status::BadRequest, error)));
      return false;
    }
    wire::Response resp =
        st == wire::FrameStatus::Bad
            ? wire::make_status_response(req.id, wire::Verb::Query,
                                         serve::Status::BadRequest, error)
            : handle_request(router, default_key, req, stop);
    buffer.erase(0, consumed);
    if (!respond(wire::encode_response_frame(resp))) return false;
  }
}

/// Thread body for one TCP client. The codec is negotiated per connection
/// by sniffing the first bytes: a "VFW1" magic selects binary framing,
/// anything else is newline-framed ndjson — so one listener carries
/// mixed-codec clients.
void serve_tcp_client(serve::ShardRouter& router,
                      const std::string& default_key, int fd,
                      std::atomic<bool>& stop) {
  namespace wire = serve::wire;
  std::string buffer;
  char chunk[4096];
  auto codec = wire::CodecKind::Unknown;
  const auto respond = [fd](const std::string& bytes) {
    return write_all(fd, bytes);
  };
  while (!stop.load() && !g_signal_stop.load()) {
    // Poll with a timeout instead of blocking in read(): an idle client
    // must not pin this thread past shutdown (serve_tcp joins us).
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200 /*ms*/);
    if (ready < 0) break;
    if (ready == 0) continue;  // timeout: recheck stop
    const ssize_t n = ::read(fd, chunk, sizeof chunk);
    if (n <= 0) break;
    buffer.append(chunk, static_cast<std::size_t>(n));
    if (codec == wire::CodecKind::Unknown) {
      codec = wire::sniff_codec(buffer);
      if (codec == wire::CodecKind::Unknown) continue;  // need more bytes
    }
    if (codec == wire::CodecKind::Binary) {
      if (!pump_binary_frames(buffer, router, default_key, stop, respond)) {
        break;
      }
      continue;
    }
    std::size_t at = 0;
    for (std::size_t nl = buffer.find('\n', at); nl != std::string::npos;
         at = nl + 1, nl = buffer.find('\n', at)) {
      const std::string line = buffer.substr(at, nl - at);
      if (line.empty()) continue;
      std::string resp = handle_serve_line(router, default_key, line, stop);
      resp += '\n';
      if (!write_all(fd, resp)) {
        ::close(fd);
        return;
      }
    }
    buffer.erase(0, at);
  }
  ::close(fd);
}

int serve_tcp(serve::ShardRouter& router, const std::string& default_key,
              int port) {
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listener < 0) {
    std::fprintf(stderr, "vfctl serve: socket() failed\n");
    return 1;
  }
  const int one = 1;
  ::setsockopt(listener, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  // vf-lint: allow(cast) POSIX sockaddr_in -> sockaddr aliasing for bind()
  if (::bind(listener, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0 ||
      ::listen(listener, 16) != 0) {
    std::fprintf(stderr, "vfctl serve: cannot listen on port %d\n", port);
    ::close(listener);
    return 1;
  }
  std::printf("listening on 127.0.0.1:%d\n", port);
  std::fflush(stdout);

  std::atomic<bool> stop{false};
  std::vector<std::thread> clients;
  while (!stop.load() && !g_signal_stop.load()) {
    pollfd pfd{listener, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200 /*ms*/);
    if (ready <= 0) continue;  // timeout/EINTR: recheck stop
    const int fd = ::accept(listener, nullptr, nullptr);
    if (fd < 0) continue;
    clients.emplace_back(serve_tcp_client, std::ref(router),
                         std::cref(default_key), fd, std::ref(stop));
  }
  // Signal path skipped the shutdown cmd: close admission before waiting
  // on the client threads so racing queries answer "draining" right away.
  router.begin_drain();
  stop.store(true);
  ::close(listener);
  for (auto& c : clients) {
    if (c.joinable()) c.join();
  }
  return 0;
}

/// One session to bind at startup: key + cloud file + model file.
struct SessionSpec {
  std::string key;
  std::string cloud_path;
  std::string model_path;
};

/// Parse --sessions "k1=c1.vtp:m1.vfmd;k2=c2.vtp:m2.vfmd".
std::vector<SessionSpec> parse_sessions(const std::string& spec) {
  std::vector<SessionSpec> out;
  std::size_t at = 0;
  while (at < spec.size()) {
    std::size_t end = spec.find(';', at);
    if (end == std::string::npos) end = spec.size();
    const std::string item = spec.substr(at, end - at);
    at = end + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    const std::size_t colon =
        eq == std::string::npos ? std::string::npos : item.find(':', eq + 1);
    if (eq == std::string::npos || colon == std::string::npos || eq == 0) {
      usage("bad --sessions entry, expected key=cloud.vtp:model.vfmd");
    }
    out.push_back({item.substr(0, eq), item.substr(eq + 1, colon - eq - 1),
                   item.substr(colon + 1)});
  }
  if (out.empty()) usage("--sessions parsed to zero sessions");
  return out;
}

int cmd_serve(const util::Cli& cli) {
  if (cli.get_bool("lock-order", false)) {
    // Arm before the shards spin up their workers so every acquisition in
    // the process is recorded; VF_LOCK_ORDER=log in the environment (read
    // at first lock) still downgrades abort -> log for triage.
    util::lockorder::set_enabled(true);
  }
  serve::RouterOptions ropts;
  ropts.shards = static_cast<std::size_t>(cli.get_int("shards", 1));
  serve::ServiceOptions& opts = ropts.shard;
  opts.workers = static_cast<std::size_t>(cli.get_int("serve-workers", 2));
  opts.batch_max_points =
      static_cast<std::size_t>(cli.get_int("batch-max", 512));
  opts.queue_max = static_cast<std::size_t>(cli.get_int("queue-max", 256));
  opts.default_deadline =
      std::chrono::milliseconds(cli.get_int("deadline-ms", 0));
  opts.registry.max_models =
      static_cast<std::size_t>(cli.get_int("registry-max-models", 4));
  opts.registry.max_bytes =
      static_cast<std::size_t>(cli.get_int("registry-budget-mb", 0)) << 20;
  // Shard model loads ride the same transient-I/O policy as every other
  // file read; the router salts the jitter per shard so co-located
  // replicas fan back in spread out after a shared-disk fault.
  opts.registry.load_retry.attempts = cli.get_int("retries", 1);
  opts.registry.load_retry.initial_delay_ms = cli.get_int("retry-delay-ms", 50);
  opts.quant = nn::quant_policy_from_name(cli.get("quant", "none"));

  const std::string wire_mode = cli.get("wire", "ndjson");
  if (wire_mode != "ndjson" && wire_mode != "binary") {
    usage("bad --wire, expected ndjson or binary");
  }

  std::vector<SessionSpec> specs;
  if (cli.has("sessions")) {
    specs = parse_sessions(cli.get("sessions", ""));
  } else {
    specs.push_back({cli.get("key", "default"), require(cli, "cloud"),
                     require(cli, "model")});
  }

  serve::ShardRouter router(ropts);
  std::size_t total_samples = 0;
  for (const auto& spec : specs) {
    auto cloud = load_with_retries(cli, [&] {
      return sampling::SampleCloud::load_vtp(spec.cloud_path);
    });
    total_samples += cloud.size();
    router.add_session(spec.key, cloud, spec.model_path);
  }
  const std::string key = specs.front().key;
  install_serve_signal_handlers();
  // In binary mode stdout carries VFW1 frames only; the human banner must
  // not interleave with them.
  FILE* banner = wire_mode == "binary" ? stderr : stdout;
  std::fprintf(banner,
               "serving %zu session(s) (%zu samples) across %zu shard(s), "
               "%zu workers/shard, batch<=%zu pts, stdin wire %s\n",
               specs.size(), total_samples, router.shard_count(), opts.workers,
               opts.batch_max_points, wire_mode.c_str());
  std::fflush(banner);

  int rc = 0;
  std::atomic<bool> stop{false};
  if (cli.has("serve-port")) {
    rc = serve_tcp(router, key, cli.get_int("serve-port", 7777));
  } else if (wire_mode == "binary") {
    // Binary stdin loop: poll + raw read so SIGTERM still interrupts, one
    // VFW1 frame out per frame in (stdout stays newline-free).
    const auto respond = [](const std::string& bytes) {
      const std::size_t n =
          std::fwrite(bytes.data(), 1, bytes.size(), stdout);
      std::fflush(stdout);
      return n == bytes.size();
    };
    std::string buffer;
    char chunk[4096];
    while (!stop.load() && !g_signal_stop.load()) {
      pollfd pfd{STDIN_FILENO, POLLIN, 0};
      const int ready = ::poll(&pfd, 1, 200 /*ms*/);
      if (ready < 0) break;  // EINTR: recheck stop
      if (ready == 0) continue;
      const ssize_t n = ::read(STDIN_FILENO, chunk, sizeof chunk);
      if (n <= 0) break;
      buffer.append(chunk, static_cast<std::size_t>(n));
      if (!pump_binary_frames(buffer, router, key, stop, respond)) {
        rc = 1;  // corrupt inbound framing
        break;
      }
    }
  } else {
    std::string line;
    // A SIGTERM/SIGINT interrupts the blocking getline (no SA_RESTART), so
    // the loop falls through to the drain below with requests in flight.
    while (!stop.load() && !g_signal_stop.load() &&
           std::getline(std::cin, line)) {
      if (line.empty()) continue;
      const std::string resp = handle_serve_line(router, key, line, stop);
      std::printf("%s\n", resp.c_str());
      std::fflush(stdout);
    }
  }
  // Graceful drain: admission is closed on every shard, backlogs flush
  // through the workers, and every outstanding request is answered.
  // Blowing the budget answers the remainder "draining" and reports exit 1.
  const bool drained = router.drain(
      std::chrono::milliseconds(cli.get_int("drain-timeout-ms", 5000)));
  if (!drained) {
    std::fprintf(stderr, "vfctl serve: drain budget exceeded\n");
  }
  const auto rstats = router.stats();
  const auto& stats = rstats.total;
  std::fprintf(stderr,
               "served %llu points in %llu batches across %zu shard(s) "
               "(%llu shed, %llu degraded, %llu expired, %llu "
               "drain-rejected, %llu rerouted)\n",
               static_cast<unsigned long long>(stats.served_points),
               static_cast<unsigned long long>(stats.batches),
               router.shard_count(),
               static_cast<unsigned long long>(stats.shed),
               static_cast<unsigned long long>(stats.degraded_points),
               static_cast<unsigned long long>(stats.expired),
               static_cast<unsigned long long>(stats.drain_rejects),
               static_cast<unsigned long long>(rstats.rerouted));
  return rc != 0 ? rc : (drained ? 0 : 1);
}

/// Results of the hot-swap probe: a client thread firing point queries at
/// the embedded serve tier for the whole stream, across every model swap.
struct ProbeTally {
  std::uint64_t answered = 0;  ///< exactly one value came back
  std::uint64_t shed = 0;      ///< admission said overloaded/draining
  std::uint64_t wrong = 0;     ///< answered with the wrong shape
  std::uint64_t dropped = 0;   ///< future threw / never fulfilled cleanly
};

/// vfctl pipeline — the whole in-situ loop as one command: stream a
/// registered dataset, fine-tune per step in the background, hot-swap each
/// model into the embedded serve tier, fall back to classical serving when
/// drift takes SNR below --drift-floor. A probe thread queries throughout
/// and the exit code asserts the swap invariant (no query dropped or
/// wrongly answered). --serve-port additionally opens the TCP front door;
/// its `ready` verb reports the live pipeline generation and last-step SNR.
int cmd_pipeline(const util::Cli& cli) {
  if (cli.get_bool("lock-order", false)) {
    util::lockorder::set_enabled(true);
  }
  const int steps = cli.get_int("steps", 8);
  const int inject_at = cli.get_int("inject-drift-at", -1);
  const double inject_factor = cli.get_double("inject-drift-factor", 8.0);

  api::PipelineConfig cfg;
  cfg.with_dataset(cli.get("dataset", "ionization"))
      .with_dims(parse_dims(cli.get("dims", "32x32x16")))
      .with_sample_fraction(cli.get_double("fraction", 0.05))
      .with_pretrain_epochs(cli.get_int("pretrain-epochs", 30))
      .with_epochs_per_step(cli.get_int("epochs-per-step", 10))
      .with_drift_floor_snr(cli.get_double("drift-floor", 0.0))
      .with_workers(static_cast<std::size_t>(cli.get_int("workers", 1)))
      .with_max_steps(steps)
      .with_seed(static_cast<std::uint64_t>(cli.get_int("seed", 1)));
  cfg.t0 = cli.get_double("timestep", 0.0);
  cfg.stride = cli.get_double("stride", 1.0);
  cfg.shards = static_cast<std::size_t>(cli.get_int("shards", 1));
  cfg.serve_workers =
      static_cast<std::size_t>(cli.get_int("serve-workers", 2));
  cfg.workdir = cli.get("workdir", "");
  const bool scratch_workdir = cfg.workdir.empty();
  if (scratch_workdir) {
    cfg.workdir = (std::filesystem::temp_directory_path() /
                   ("vfctl-pipeline-" + std::to_string(::getpid())))
                      .string();
  }
  cfg.on_step = [](const vf::pipeline::StepReport& r) {
    std::printf("step %-3d t=%-7.2f train %5.2fs  model %6.2f dB  "
                "classical %6.2f dB  gen %llu  %s%s\n",
                r.step, r.t, r.train_seconds, r.model_snr_db,
                r.classical_snr_db,
                static_cast<unsigned long long>(r.generation),
                vf::pipeline::drift_action_name(r.action),
                r.classical ? "  [serving classical]" : "");
    std::fflush(stdout);
  };

  api::Pipeline pipe(cfg);
  g_live_pipeline = &pipe;
  install_serve_signal_handlers();
  std::printf("pipeline: dataset %s %s, %.1f%% archive, %d epochs/step, "
              "%zu worker(s), drift floor %.1f dB, workdir %s\n",
              cfg.dataset.c_str(), cli.get("dims", "32x32x16").c_str(),
              cfg.sample_fraction * 100, cfg.epochs_per_step, cfg.workers,
              cfg.drift_floor_snr, cfg.workdir.c_str());
  pipe.start();  // synchronous pretrain: a generation is live from here on
  std::printf("step 0 pretrained; generation %llu serving\n",
              static_cast<unsigned long long>(pipe.generation()));
  std::fflush(stdout);

  // The optional TCP front door runs for the whole stream so `ready` can
  // watch generations advance live; a shutdown cmd or SIGTERM ends it.
  std::thread tcp;
  if (cli.has("serve-port")) {
    tcp = std::thread([&pipe, port = cli.get_int("serve-port", 7777)] {
      serve_tcp(pipe.router(), pipe.config().session_key, port);
    });
  }

  // Hot-swap probe: per-query verification that the serve tier answers
  // exactly once with exactly one value while models swap underneath it.
  ProbeTally tally;
  std::atomic<bool> probe_stop{false};
  std::thread probe;
  const bool probed = !cli.get_bool("probe-off", false);
  if (probed) {
    probe = std::thread([&pipe, &tally, &probe_stop] {
      std::uint64_t n = 0;
      while (!probe_stop.load(std::memory_order_relaxed)) {
        const double u = 0.05 + 0.9 * static_cast<double>(n % 97) / 96.0;
        ++n;
        try {
          auto future = pipe.submit({{u, 1.0 - u, u}});
          if (!future) {
            ++tally.shed;
          } else if (future->get().values.size() == 1) {
            ++tally.answered;
          } else {
            ++tally.wrong;
          }
        } catch (const std::exception&) {
          ++tally.dropped;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(500));
      }
    });
  }

  int emitted = 1;
  while (emitted < steps || steps <= 0) {
    if (emitted == inject_at) {
      // Drift injection: jump the simulation clock so the dataset's front
      // sweeps far between consecutive steps and fine-tuning from the
      // previous weights has to chase it.
      pipe.driver().set_stride(cfg.stride * inject_factor);
      std::printf("injecting drift: stride -> %.2f\n",
                  cfg.stride * inject_factor);
    }
    if (!pipe.step()) break;
    ++emitted;
    if (g_signal_stop.load()) break;
  }
  pipe.drain();
  if (probe.joinable()) {
    probe_stop.store(true);
    probe.join();
  }

  const auto stats = pipe.stats();
  std::printf(
      "streamed %llu step(s): %llu trained, %llu coalesced, %llu "
      "publish(es), %llu refinetune(s), %llu fallback(s), %llu "
      "recover(ies)%s\n",
      static_cast<unsigned long long>(stats.steps_ingested),
      static_cast<unsigned long long>(stats.steps_trained),
      static_cast<unsigned long long>(stats.steps_coalesced),
      static_cast<unsigned long long>(stats.publishes),
      static_cast<unsigned long long>(stats.refinetunes),
      static_cast<unsigned long long>(stats.fallbacks),
      static_cast<unsigned long long>(stats.recoveries),
      stats.serving_classical ? "  [ended serving classical]" : "");
  std::printf("registry: %llu hot swap(s), %llu superseded load(s) "
              "discarded\n",
              static_cast<unsigned long long>(stats.serve.total.registry.swaps),
              static_cast<unsigned long long>(
                  stats.serve.total.registry.superseded_loads));
  bool probe_ok = true;
  if (probed) {
    probe_ok = tally.wrong == 0 && tally.dropped == 0;
    std::printf("probe: %llu answered, %llu shed, %llu wrong, %llu dropped "
                "-> %s\n",
                static_cast<unsigned long long>(tally.answered),
                static_cast<unsigned long long>(tally.shed),
                static_cast<unsigned long long>(tally.wrong),
                static_cast<unsigned long long>(tally.dropped),
                probe_ok ? "ok" : "FAILED");
  }
  std::fflush(stdout);

  if (tcp.joinable()) {
    std::printf("stream complete; serving on --serve-port until shutdown\n");
    std::fflush(stdout);
    tcp.join();
  }
  g_live_pipeline = nullptr;
  if (scratch_workdir) {
    std::error_code ec;
    std::filesystem::remove_all(cfg.workdir, ec);
  }
  return probe_ok ? 0 : 1;
}

int cmd_eval(const util::Cli& cli) {
  auto truth = read_vti_retry(cli, require(cli, "truth"));
  auto recon = read_vti_retry(cli, require(cli, "recon"));
  std::printf("snr_db=%.3f psnr_db=%.3f rmse=%.6g mae=%.6g max_err=%.6g\n",
              field::snr_db(truth, recon), field::psnr_db(truth, recon),
              field::rmse(truth, recon), field::mae(truth, recon),
              field::max_abs_error(truth, recon));
  return 0;
}

}  // namespace

namespace {

/// Telemetry sinks, flushed after the command body (success or failure) so
/// a degraded run still leaves its metrics behind.
void flush_observability(const util::Cli& cli) {
  try {
    if (cli.has("metrics-out")) {
      obs::write_metrics_json(cli.get("metrics-out", ""));
    }
    if (cli.has("trace-out")) {
      obs::write_chrome_trace(cli.get("trace-out", ""));
    }
    if (cli.get_bool("trace", false)) {
      const std::string summary = obs::trace_summary();
      if (!summary.empty()) std::printf("%s", summary.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vfctl: observability export failed: %s\n", e.what());
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage("no command");
  std::string cmd = argv[1];
  util::Cli cli(argc - 1, argv + 1);
  int rc = -1;
  try {
    if (cmd == "generate") rc = cmd_generate(cli);
    if (cmd == "sample") rc = cmd_sample(cli);
    if (cmd == "train") rc = cmd_train(cli);
    if (cmd == "finetune") rc = cmd_finetune(cli);
    if (cmd == "reconstruct") rc = cmd_reconstruct(cli);
    if (cmd == "eval") rc = cmd_eval(cli);
    if (cmd == "serve") rc = cmd_serve(cli);
    if (cmd == "pipeline") rc = cmd_pipeline(cli);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "vfctl %s: %s\n", cmd.c_str(), e.what());
    flush_observability(cli);
    return 1;
  }
  if (rc >= 0) {
    flush_observability(cli);
    return rc;
  }
  usage(("unknown command " + cmd).c_str());
}
