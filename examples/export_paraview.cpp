// Export a full paper-style artefact set for inspection in ParaView:
//
//   truth.vti          — the ground-truth volume
//   sampled.vtp        — the importance-sampled point cloud
//   recon_fcnn.vti     — FCNN reconstruction
//   recon_linear.vti   — Delaunay linear reconstruction
//   error_fcnn.vti     — signed error volume (truth - fcnn)
//
// This mirrors the .vti -> .vtp -> .vti pipeline of §IV-A. Load truth and
// the reconstructions side by side with the same transfer function to see
// the Fig 2/3-style qualitative differences.
//
// Run:  ./export_paraview [--out /tmp/voidfill_out] [--fraction 0.01]

#include <cstdio>
#include <filesystem>

#include "vf/api/reconstruct.hpp"
#include "vf/core/fcnn.hpp"
#include "vf/data/registry.hpp"
#include "vf/field/metrics.hpp"
#include "vf/field/vtk_io.hpp"
#include "vf/interp/methods.hpp"
#include "vf/sampling/samplers.hpp"
#include "vf/util/cli.hpp"
#include "vf/vis/marching_cubes.hpp"
#include "vf/vis/raycast.hpp"

int main(int argc, char** argv) {
  using namespace vf;
  util::Cli cli(argc, argv);
  std::filesystem::path out = cli.get("out", "/tmp/voidfill_out");
  std::filesystem::create_directories(out);
  const double fraction = cli.get_double("fraction", 0.01);

  auto dataset = data::make_dataset(cli.get("dataset", "ionization"));
  auto dims = data::scaled_dims(*dataset, cli.get_int("divisor", 8));
  auto truth = dataset->generate(dims, dataset->timestep_count() * 0.6);
  field::write_vti(truth, (out / "truth.vti").string());

  sampling::ImportanceSampler sampler;
  auto cloud = sampler.sample(truth, fraction, 3);
  cloud.save_vtp((out / "sampled.vtp").string(), truth.name());

  core::FcnnConfig cfg;
  cfg.epochs = cli.get_int("epochs", 25);
  cfg.max_train_rows = 10000;
  auto pre = core::pretrain(truth, sampler, cfg);

  // One-shot facade call: request in, reconstructed field out.
  api::ReconstructRequest req;
  req.cloud = &cloud;
  req.grid = &truth.grid();
  req.options.method = api::Method::FcnnStream;
  req.options.model = &pre.model;
  auto rec_fcnn = api::reconstruct(req).field;
  rec_fcnn.set_name(truth.name());
  field::write_vti(rec_fcnn, (out / "recon_fcnn.vti").string());

  auto rec_linear =
      interp::LinearDelaunayReconstructor().reconstruct(cloud, truth.grid());
  rec_linear.set_name(truth.name());
  field::write_vti(rec_linear, (out / "recon_linear.vti").string());

  field::ScalarField error(truth.grid(), "error");
  for (std::int64_t i = 0; i < truth.size(); ++i) {
    error[i] = truth[i] - rec_fcnn[i];
  }
  field::write_vti(error, (out / "error_fcnn.vti").string());

  // Bonus artefacts from the vis substrate: volume renders (PPM) and the
  // isosurface of truth vs reconstruction (OBJ).
  auto stats = truth.stats();
  auto tf = vis::TransferFunction::cool_warm(stats.min, stats.max,
                                             4.0 / truth.grid().spacing().x);
  vis::render(truth, tf).write_ppm((out / "render_truth.ppm").string());
  vis::render(rec_fcnn, tf).write_ppm((out / "render_fcnn.ppm").string());
  double iso = stats.min + 0.55 * (stats.max - stats.min);
  auto mesh_truth = vis::extract_isosurface(truth, iso);
  auto mesh_fcnn = vis::extract_isosurface(rec_fcnn, iso);
  if (!mesh_truth.empty()) {
    mesh_truth.write_obj((out / "iso_truth.obj").string());
  }
  if (!mesh_fcnn.empty()) {
    mesh_fcnn.write_obj((out / "iso_fcnn.obj").string());
  }

  std::printf("wrote %s/{truth.vti, sampled.vtp, recon_fcnn.vti, "
              "recon_linear.vti, error_fcnn.vti,\n  render_truth.ppm, "
              "render_fcnn.ppm, iso_truth.obj, iso_fcnn.obj}\n", out.c_str());
  std::printf("SNR: fcnn %.2f dB, linear %.2f dB (at %.1f%% sampling)\n",
              field::snr_db(truth, rec_fcnn),
              field::snr_db(truth, rec_linear), fraction * 100);
  return 0;
}
