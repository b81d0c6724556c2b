package repro.eval

import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.geo.{RoadNetwork, ShortestPath}
import repro.mm.MapMatcher
import repro.recovery.Recoverer
import repro.traj.Traj
import scala.reflect.ClassTag
import scala.reflect.runtime.universe.TypeTag

/** Distributed batched inference (the repro hint's extension point): the
  * trained model (inside the Recoverer/MapMatcher) and the road network are
  * broadcast once; trajectories are processed per partition with a
  * per-partition network-distance cache, and the per-trajectory metric rows
  * come back as a DataFrame for SQL aggregation.
  */
object SparkInfer {

  /** Per-trajectory recovery metrics for `rec` over `testSet`, plus the
    * mean inference seconds per 1000 trajectories (model time only,
    * measured inside the partitions; metric computation excluded).
    */
  def recovery(spark: SparkSession, net: RoadNetwork, rec: Recoverer,
               testSet: Seq[Traj]): (DataFrame, Double) =
    infer(spark, net, rec, testSet)(_.recover(_)) { (localNet, cache, t, out) =>
      Metrics.recovery(localNet, t, out.points, cache)
    }

  /** Per-trajectory map-matching metrics, plus seconds per 1000. */
  def mapMatch(spark: SparkSession, net: RoadNetwork, matcher: MapMatcher,
               testSet: Seq[Traj]): (DataFrame, Double) =
    infer(spark, net, matcher, testSet)(_.matchTraj(_))((_, _, t, mr) => Metrics.mapMatch(t, mr.route))

  /** Broadcast `method` and `net`, `run` the method on every trajectory of
    * `testSet` per partition (timed), `score` each output, and return the
    * score rows with the mean seconds per 1000 trajectories.
    */
  private def infer[M: ClassTag, O, R <: Product : TypeTag](spark: SparkSession, net: RoadNetwork,
      method: M, testSet: Seq[Traj])(run: (M, Traj) => O)(
      score: (RoadNetwork, ShortestPath.DistCache, Traj, O) => R): (DataFrame, Double) = {
    import spark.implicits._
    val bcNet = spark.sparkContext.broadcast(net)
    val bcM = spark.sparkContext.broadcast(method)
    val rows = spark.createDataset(testSet.toSeq).mapPartitions { iter =>
      val localNet = bcNet.value
      val localM = bcM.value
      val cache = new ShortestPath.DistCache(localNet)
      iter.map { t =>
        val t0 = System.nanoTime()
        val out = run(localM, t)
        val dt = (System.nanoTime() - t0) / 1e9
        (score(localNet, cache, t, out), dt)
      }
    }.collect()
    (rows.toSeq.map(_._1).toDF(), rows.map(_._2).sum / rows.length * 1000)
  }
}
