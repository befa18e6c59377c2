/**
 * Reproduces paper Table V: the LibSVM evaluation datasets. Prints the
 * paper-scale shapes and validates that the synthetic generators emit
 * exactly those shapes (generating a sample at a configurable scale).
 */
#include "bench_util.h"
#include "svm/dataset.h"

int
main(int argc, char** argv)
{
    using namespace nesgx::bench;
    Flags flags(argc, argv);
    double scale = flags.f64("scale", 0.01);
    flags.finish();

    header("Table V: datasets used for evaluating LibSVM");
    note("'-' testing size means only training data exists (training set "
         "reused)");
    note("generator sampled at scale " + std::to_string(scale));

    std::printf("\n  %-14s %6s %14s %14s %9s %12s\n", "name", "class",
                "training size", "testing size", "feature", "gen rows ok");

    for (const auto& shape : nesgx::svm::tableVShapes()) {
        std::size_t rows = std::max<std::size_t>(
            1, std::size_t(double(shape.trainSize) * scale));
        nesgx::Rng rng(0xDA7A + shape.features);
        auto data = nesgx::svm::generate(shape, rows, rng);

        bool ok = data.size() == rows && data.nClasses == shape.nClasses &&
                  data.nFeatures == shape.features;
        char testStr[32];
        if (shape.testSize) {
            std::snprintf(testStr, sizeof(testStr), "%zu", shape.testSize);
        } else {
            std::snprintf(testStr, sizeof(testStr), "-");
        }
        std::printf("  %-14s %6d %14zu %14s %9d %12s\n", shape.name.c_str(),
                    shape.nClasses, shape.trainSize, testStr, shape.features,
                    ok ? "yes" : "NO");
    }
    return 0;
}
