/**
 * Reproduces paper Fig. 9: LibSVM training and prediction time with
 * nested enclave, normalized to the monolithic baseline, across the five
 * Table V datasets.
 *
 * Datasets are synthetic with the paper's class/feature geometry; row
 * counts are scaled down by default (--rows caps rows per dataset) since
 * the quadratic SMO solver at full cod-rna scale is a multi-hour run.
 * The normalized ratio — the quantity Fig. 9 reports — is insensitive to
 * the cap because both layouts run identical workloads.
 */
#include "apps/ml_app.h"
#include "bench_util.h"

namespace nesgx::bench {
namespace {

struct Times {
    double trainSecs = 0;
    double predictSecs = 0;
};

Times
run(apps::MlService::MlLayout layout, const svm::Dataset& trainData,
    const svm::Dataset& testData)
{
    BenchWorld world(defaultConfig());
    auto service =
        apps::MlService::create(*world.urts, layout, 1).orThrow("service");
    Bytes sealedTrain = apps::sealDataset(trainData, service->clientKey(0), 0);
    Bytes sealedTest = apps::sealDataset(testData, service->clientKey(0), 1);

    svm::TrainParams params;
    params.kernel.gamma = 1.0 / std::max(1, trainData.nFeatures);

    auto& clock = world.machine.clock();
    Times times;

    std::uint64_t before = clock.cycles();
    auto trained = service->train(0, sealedTrain, params).orThrow("train");
    times.trainSecs =
        double(clock.cycles() - before) / double(clock.frequencyHz());

    before = clock.cycles();
    auto predicted = service->predict(0, sealedTest).orThrow("predict");
    times.predictSecs =
        double(clock.cycles() - before) / double(clock.frequencyHz());

    if (!trained.ok || !predicted.ok) {
        std::fprintf(stderr, "svm service failed\n");
        std::exit(1);
    }
    return times;
}

}  // namespace
}  // namespace nesgx::bench

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    using nesgx::svm::Dataset;
    Flags flags(argc, argv);
    std::uint64_t rowCap = flags.u64("rows", 200);
    flags.finish();

    header("Fig. 9: LibSVM train/predict time, nested normalized to "
           "monolithic");
    note("paper: nested ~= monolithic across all datasets (ratio ~1.00)");
    note("row cap per dataset: " + std::to_string(rowCap) +
         " (full Table V sizes via --rows)");

    std::printf("\n  %-14s %8s %8s %14s %14s\n", "dataset", "rows", "test",
                "train norm", "predict norm");

    for (const auto& shape : nesgx::svm::tableVShapes()) {
        nesgx::Rng rng(0xF19 + shape.features);
        std::size_t trainRows =
            std::min<std::size_t>(shape.trainSize, rowCap);
        // Paper's '-': reuse (a fraction of) the training set for tests.
        std::size_t testRows =
            shape.testSize ? std::min<std::size_t>(shape.testSize, rowCap)
                           : trainRows / 2;
        Dataset trainData = nesgx::svm::generate(shape, trainRows, rng);
        Dataset testData = nesgx::svm::generate(shape, testRows, rng);

        Times mono = run(nesgx::apps::MlService::MlLayout::Monolithic,
                         trainData, testData);
        Times nested = run(nesgx::apps::MlService::MlLayout::Nested,
                           trainData, testData);

        std::printf("  %-14s %8zu %8zu %14.3f %14.3f\n", shape.name.c_str(),
                    trainRows, testRows, nested.trainSecs / mono.trainSecs,
                    nested.predictSecs / mono.predictSecs);
    }
    return 0;
}
