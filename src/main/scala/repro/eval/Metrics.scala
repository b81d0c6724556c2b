package repro.eval

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions._
import repro.geo.{RoadNetwork, ShortestPath}
import repro.traj.{MatchedPoint, Traj}

/** Per-trajectory recovery metrics (paper VI-A). */
final case class RecoveryRow(
    id: Long,
    recall: Double,
    precision: Double,
    f1: Double,
    accuracy: Double,
    mae: Double,
    rmse: Double,
) extends Serializable

/** Per-trajectory map-matching metrics (paper VI-A). */
final case class MatchRow(
    id: Long,
    precision: Double,
    recall: Double,
    f1: Double,
    jaccard: Double,
) extends Serializable

/** Metric formulas and Spark aggregation.
  *
  * Set metrics use the standard orientation: precision normalises by the
  * prediction, recall by the ground truth (the paper's formula block swaps
  * the symbols but its prose and prior work use the standard orientation).
  * Every metric is computed per trajectory and then averaged over the test
  * set, exactly as in the paper.
  */
object Metrics {

  private def setPRF(pred: Set[Int], truth: Set[Int]): (Double, Double, Double, Double) = {
    if (pred.isEmpty || truth.isEmpty) return (0.0, 0.0, 0.0, 0.0)
    val inter = (pred & truth).size.toDouble
    val p = inter / pred.size
    val r = inter / truth.size
    val f1 = if (p + r == 0) 0.0 else 2 * p * r / (p + r)
    val j = inter / (pred | truth).size
    (p, r, f1, j)
  }

  /** Recovery metrics of `rec` against `t.dense`. `cache` memoises network
    * distances; reuse one per partition.
    */
  def recovery(net: RoadNetwork, t: Traj, rec: Array[MatchedPoint],
               cache: ShortestPath.DistCache): RecoveryRow = {
    val truth = t.dense
    val n = math.min(rec.length, truth.length)
    val (p, r, f1, _) = setPRF(rec.map(_.seg).toSet, truth.map(_.seg).toSet)
    var hits = 0
    var sumAbs = 0.0
    var sumSq = 0.0
    var i = 0
    while (i < n) {
      if (rec(i).seg == truth(i).seg) hits += 1
      val d = cache.matchedDist(rec(i).seg, rec(i).r, truth(i).seg, truth(i).r)
      sumAbs += math.abs(d)
      sumSq += d * d
      i += 1
    }
    val denom = math.max(1, truth.length)
    RecoveryRow(t.id,
      recall = r, precision = p, f1 = f1,
      accuracy = hits.toDouble / denom,
      mae = sumAbs / math.max(1, n),
      rmse = math.sqrt(sumSq / math.max(1, n)))
  }

  /** Map-matching metrics of predicted route vs ground-truth route. */
  def mapMatch(t: Traj, routePred: Array[Int]): MatchRow = {
    val (p, r, f1, j) = setPRF(routePred.toSet, t.route.toSet)
    MatchRow(t.id, precision = p, recall = r, f1 = f1, jaccard = j)
  }

  /** Mean of every numeric column except `id`. Used by all benches; the
    * test suite cross-checks this aggregation against DuckDB.
    */
  def aggregate(df: DataFrame): Map[String, Double] = {
    val cols = df.columns.filterNot(_ == "id")
    val row = df.select(cols.map(c => avg(col(c)).as(c)).toIndexedSeq: _*).head()
    cols.zipWithIndex.map { case (c, i) => c -> row.getDouble(i) }.toMap
  }
}
