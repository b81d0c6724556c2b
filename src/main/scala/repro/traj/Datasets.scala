package repro.traj

import repro.geo.RoadNetwork

/** The four synthetic cities mirroring the paper's Table II datasets.
  *
  * Relative statistics are preserved at reduced scale (DESIGN.md §3): BJ is
  * by far the largest network with the lowest sampling rate (epsilon = 60 s),
  * XA the densest per unit area, PT/CD mid-sized with epsilon = 15/12 s.
  */
object Datasets {

  final case class CityData(net: RoadNetwork, gen: GenConfig)

  private def city(name: String): CityData = name match {
    case "PT" =>
      CityData(
        RoadNetwork.generate(RoadNetwork.CityConfig(
          "PT", gridW = 24, gridH = 12, spacingM = 230, seed = 41)),
        GenConfig(epsilon = 15, avgPoints = 40, speedMinMs = 6, speedMaxMs = 12))
    case "XA" =>
      CityData(
        RoadNetwork.generate(RoadNetwork.CityConfig(
          "XA", gridW = 16, gridH = 15, spacingM = 180, seed = 42)),
        GenConfig(epsilon = 12, avgPoints = 68, speedMinMs = 5, speedMaxMs = 10))
    case "BJ" =>
      CityData(
        RoadNetwork.generate(RoadNetwork.CityConfig(
          "BJ", gridW = 30, gridH = 30, spacingM = 320, seed = 43)),
        GenConfig(epsilon = 60, avgPoints = 31, speedMinMs = 6, speedMaxMs = 11))
    case "CD" =>
      CityData(
        RoadNetwork.generate(RoadNetwork.CityConfig(
          "CD", gridW = 18, gridH = 17, spacingM = 200, seed = 44)),
        GenConfig(epsilon = 12, avgPoints = 54, speedMinMs = 5, speedMaxMs = 10))
    case other => throw new IllegalArgumentException(s"unknown city $other")
  }

  private val cache = new java.util.concurrent.ConcurrentHashMap[String, CityData]()

  /** Road network + generator config for a city (cached; generation is
    * deterministic in the city seed).
    */
  def apply(name: String): CityData = cache.computeIfAbsent(name, city(_))

  /** Train and test sets of the 40/30/30 split by trajectory index (paper
    * VI-A). No model early-stops, so the middle 30 % (validation) goes unused.
    */
  final case class Split[T](train: IndexedSeq[T], test: IndexedSeq[T])

  def split[T](all: IndexedSeq[T]): Split[T] = {
    val n = all.length
    val nTrain = (n * 0.4).toInt
    val nVal = (n * 0.3).toInt
    Split(all.slice(0, nTrain), all.slice(nTrain + nVal, n))
  }
}
